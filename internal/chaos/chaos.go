// Package chaos is the deterministic fault-scenario scheduler for the
// simulated deployments: it injects link, switch, port and node faults
// into a running cluster at exact simulated times, and heals them on the
// same schedule. Because every action rides the simulation engine, a
// scenario with a fixed seed produces a bit-identical fault (and
// recovery) timeline on every run — which is what lets the robustness
// experiments assert exactly-once delivery and golden recovery traces
// rather than eyeball flaky logs.
package chaos

import (
	"fmt"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
)

// Injector applies faults to one cluster. All methods are safe to call
// from engine callbacks; they take effect immediately in simulated time.
type Injector struct {
	C   *cluster.Cluster
	tel *telemetry.Set

	// Faults counts injected faults, Heals healing actions (chaos.faults,
	// chaos.heals).
	Faults, Heals int64

	// Log accumulates one line per action for scenario digests.
	Log []Event
}

// Event is one scheduler action, recorded for digest comparison.
type Event struct {
	At   sim.Time
	What string
}

// New builds an injector and publishes its chaos.* counters.
func New(c *cluster.Cluster) *Injector {
	i := &Injector{C: c, tel: telemetry.For(c.Eng)}
	i.tel.Reg.Fields("chaos", i)
	c.Eng.SetAux(auxKey{}, i)
	return i
}

type auxKey struct{}

// Of returns the injector last built on eng, or nil when no fault was
// scheduled there, so a viewer can print a world's chaos log.
func Of(eng *sim.Engine) *Injector {
	i, _ := eng.Aux(auxKey{}).(*Injector)
	return i
}

func (i *Injector) note(heal bool, format string, args ...any) {
	now := i.C.Eng.Now()
	what := fmt.Sprintf(format, args...)
	i.Log = append(i.Log, Event{At: now, What: what})
	cat := telemetry.CatChaosFault
	if heal {
		cat = telemetry.CatChaosHeal
		i.Heals++
	} else {
		i.Faults++
	}
	i.tel.Flight.Record(now, cat, -1, 0, int64(len(i.Log)), 0)
}

// --- link faults ------------------------------------------------------------

// LinkDown severs the link between the two labelled devices.
func (i *Injector) LinkDown(a, b string) {
	if !i.C.Fab.SetLinkState(a, b, false) {
		panic(fmt.Sprintf("chaos: no link %s<->%s", a, b))
	}
	i.note(false, "link.down %s<->%s", a, b)
}

// LinkUp restores a severed link.
func (i *Injector) LinkUp(a, b string) {
	if !i.C.Fab.SetLinkState(a, b, true) {
		panic(fmt.Sprintf("chaos: no link %s<->%s", a, b))
	}
	i.note(true, "link.up %s<->%s", a, b)
}

// LinkFlap downs a link and schedules its restoration after downFor.
func (i *Injector) LinkFlap(a, b string, downFor sim.Duration) {
	i.LinkDown(a, b)
	i.C.Eng.AfterBg(downFor, func() { i.LinkUp(a, b) })
}

// Brownout degrades a link without killing it: loss and corruption
// probabilities plus added one-way latency (a flaky optic, §V-A's "slow
// port" class of anomaly).
func (i *Injector) Brownout(a, b string, loss, corrupt float64, extra sim.Duration) {
	if !i.C.Fab.SetLinkImpairment(a, b, loss, corrupt, extra) {
		panic(fmt.Sprintf("chaos: no link %s<->%s", a, b))
	}
	i.note(false, "brownout %s<->%s loss=%g corrupt=%g extra=%v", a, b, loss, corrupt, extra)
}

// ClearBrownout removes a link impairment.
func (i *Injector) ClearBrownout(a, b string) {
	if !i.C.Fab.SetLinkImpairment(a, b, 0, 0, 0) {
		panic(fmt.Sprintf("chaos: no link %s<->%s", a, b))
	}
	i.note(true, "brownout.clear %s<->%s", a, b)
}

// HostBrownout degrades one host's access link without killing it — the
// gray "flaky optic at the NIC" class, pinned to a single machine so the
// fleet diagnoser can name the culprit node.
func (i *Injector) HostBrownout(node int, loss, corrupt float64, extra sim.Duration) {
	if !i.C.Fab.SetHostLinkImpairment(fabric.NodeID(node), loss, corrupt, extra) {
		panic(fmt.Sprintf("chaos: no host %d", node))
	}
	i.note(false, "hostlink.brownout %d loss=%g corrupt=%g extra=%v", node, loss, corrupt, extra)
}

// ClearHostBrownout removes a host-link impairment.
func (i *Injector) ClearHostBrownout(node int) {
	if !i.C.Fab.SetHostLinkImpairment(fabric.NodeID(node), 0, 0, 0) {
		panic(fmt.Sprintf("chaos: no host %d", node))
	}
	i.note(true, "hostlink.brownout.clear %d", node)
}

// --- switch faults ----------------------------------------------------------

// SwitchDown fails an entire switch (power loss): every attached link
// drops and neighbours' ECMP steers around the box.
func (i *Injector) SwitchDown(label string) {
	if !i.C.Fab.SetSwitchState(label, false) {
		panic(fmt.Sprintf("chaos: no switch %q", label))
	}
	i.note(false, "switch.down %s", label)
}

// SwitchUp restores a failed switch.
func (i *Injector) SwitchUp(label string) {
	if !i.C.Fab.SetSwitchState(label, true) {
		panic(fmt.Sprintf("chaos: no switch %q", label))
	}
	i.note(true, "switch.up %s", label)
}

// --- host faults ------------------------------------------------------------

// HostLinkDown pulls the host's access cable (NIC-to-ToR).
func (i *Injector) HostLinkDown(node int) {
	if !i.C.Fab.SetHostLink(fabric.NodeID(node), false) {
		panic(fmt.Sprintf("chaos: no host %d", node))
	}
	i.note(false, "hostlink.down %d", node)
}

// HostLinkUp replugs the host's access cable.
func (i *Injector) HostLinkUp(node int) {
	if !i.C.Fab.SetHostLink(fabric.NodeID(node), true) {
		panic(fmt.Sprintf("chaos: no host %d", node))
	}
	i.note(true, "hostlink.up %d", node)
}

// NodeCrash kills a whole machine: the RDMA NIC and the TCP stack both go
// silent without notifying any peer (§V-A's machine-failure class).
func (i *Injector) NodeCrash(node int) {
	n := i.C.Nodes[node]
	n.NIC.Crash()
	n.TCP.Crash()
	i.note(false, "node.crash %d", node)
}

// NodeRestart reboots a crashed machine: the NIC comes back with all QPs
// flushed-and-reset and registered memory gone, the TCP stack revives,
// and the middleware rebuilds its memory cache and re-establishes every
// channel through the health machinery.
func (i *Injector) NodeRestart(node int) {
	n := i.C.Nodes[node]
	n.NIC.Restart()
	n.TCP.Revive()
	n.Ctx.OnNICRestart()
	i.note(true, "node.restart %d", node)
}

// NicCrash kills only the RDMA plane of a node, leaving TCP up — the
// permanent-fault drill: channels must end on the Mock fallback because
// recovery dials can never succeed.
func (i *Injector) NicCrash(node int) {
	i.C.Nodes[node].NIC.Crash()
	i.note(false, "nic.crash %d", node)
}

// DrainRestart rolls one node's middleware under live traffic — the
// hot-upgrade verb: graceful drain (in-flight work runs to completion
// under the drain deadline), in-place restart at a possibly mutated
// configuration (typically a bumped ProtoVerMax), then rehydration of the
// handoff blob so the surviving channels re-establish through the
// recovery plane. prep runs between the restart and the rehydration so
// the scenario can re-install OnChannel handlers and listeners on the
// fresh context.
func (i *Injector) DrainRestart(node int, mutate func(*xrdma.Config), prep func(*xrdma.Context)) {
	n := i.C.Nodes[node]
	i.note(false, "node.drain %d", node)
	if err := n.Ctx.Drain(func(blob []byte) {
		ctx := i.C.Restart(node, mutate)
		if prep != nil {
			prep(ctx)
		}
		if err := ctx.Rehydrate(blob); err != nil {
			panic(fmt.Sprintf("chaos: rehydrate node %d: %v", node, err))
		}
		i.note(true, "node.upgrade %d handoff=%dB", node, len(blob))
	}); err != nil {
		panic(fmt.Sprintf("chaos: drain node %d: %v", node, err))
	}
}

// --- scenario scheduling ----------------------------------------------------

// Step is one scheduled action of a fault scenario.
type Step struct {
	At   sim.Duration // offset from Schedule()
	Name string
	Do   func(*Injector)
}

// Schedule arms every step at its offset from now. Steps run as
// background events: they never keep an otherwise-drained engine alive.
func (i *Injector) Schedule(steps []Step) {
	for _, s := range steps {
		s := s
		i.C.Eng.AfterBg(s.At, func() { s.Do(i) })
	}
}

// Digest renders the action log as deterministic lines ("t=... what"),
// the piece of the recovery timeline the golden tests compare.
func (i *Injector) Digest() []string {
	out := make([]string, len(i.Log))
	for k, e := range i.Log {
		out[k] = fmt.Sprintf("t=%v %s", e.At, e.What)
	}
	return out
}
