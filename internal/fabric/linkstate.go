package fabric

import (
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Link-state fault injection (chaos plane). Links are addressed by the
// labels of the devices they join: switches by Label ("pod0-leaf1",
// "spine0"), hosts by "host<id>". All operations are idempotent and take
// effect immediately in simulated time; frames already propagating on the
// wire still arrive (photons do not care about routing tables), while
// queued frames on a downed port are flushed and counted as drops.

// devicePorts iterates all ports in the fabric, handing each to fn with
// its owning device's name. Used by the label-addressed chaos API.
func (f *Fabric) devicePorts(fn func(owner string, pt *Port)) {
	for _, s := range f.switches {
		for _, pt := range s.ports {
			fn(s.Label, pt)
		}
	}
	for _, h := range f.hosts {
		fn(h.name(), h.port)
	}
}

// portsBetween returns the two halves of the full-duplex link between the
// named devices, or nil if no such link exists.
func (f *Fabric) portsBetween(a, b string) (pa, pb *Port) {
	f.devicePorts(func(owner string, pt *Port) {
		if owner == a && pt.peer.owner.name() == b {
			pa = pt
			pb = pt.peer
		}
	})
	return pa, pb
}

// SwitchByLabel looks a switch up by its topology label.
func (f *Fabric) SwitchByLabel(label string) *Switch {
	for _, s := range f.switches {
		if s.Label == label {
			return s
		}
	}
	return nil
}

// SetLinkState brings the link between devices a and b down or up (both
// directions). Returns false if the link does not exist.
func (f *Fabric) SetLinkState(a, b string, up bool) bool {
	pa, pb := f.portsBetween(a, b)
	if pa == nil {
		return false
	}
	if up {
		pa.setUp()
		pb.setUp()
	} else {
		pa.setDown()
		pb.setDown()
	}
	f.tel.Flight.Record(f.Eng.Now(), telemetry.CatLinkState, -1, 0, upArg(up), 0)
	return true
}

// SetLinkImpairment configures a brownout on the link between a and b:
// loss probability, corruption probability and added latency, applied to
// both directions. Zero values clear the impairment. Returns false if the
// link does not exist.
func (f *Fabric) SetLinkImpairment(a, b string, loss, corrupt float64, extra sim.Duration) bool {
	pa, pb := f.portsBetween(a, b)
	if pa == nil {
		return false
	}
	for _, pt := range [...]*Port{pa, pb} {
		pt.lossRate = loss
		pt.corruptRate = corrupt
		pt.extraDelay = extra
	}
	return true
}

// SetSwitchState fails or restores an entire switch: every attached link
// goes down with it, so neighbours' ECMP steers around the box, and any
// frame already in flight toward it is sunk. Returns false for an unknown
// label.
func (f *Fabric) SetSwitchState(label string, up bool) bool {
	s := f.SwitchByLabel(label)
	if s == nil {
		return false
	}
	s.down = !up
	for _, pt := range s.ports {
		if up {
			pt.setUp()
		} else {
			pt.setDown()
		}
	}
	f.tel.Flight.Record(f.Eng.Now(), telemetry.CatSwitchState, -1, 0, upArg(up), int64(s.Tier))
	return true
}

// SetHostLink cuts or restores a host's access link (NIC-to-ToR cable
// pull). Returns false for an unknown host.
func (f *Fabric) SetHostLink(id NodeID, up bool) bool {
	h := f.hosts[id]
	if h == nil {
		return false
	}
	if up {
		h.port.setUp()
		h.port.peer.setUp()
	} else {
		h.port.setDown()
		h.port.peer.setDown()
	}
	return true
}

// SetHostLinkImpairment configures a brownout on one host's access link —
// the gray "flaky optic at the NIC" class, pinned to a single machine:
// loss probability, corruption probability and added latency, applied to
// both directions. Zero values clear the impairment. Returns false for an
// unknown host.
func (f *Fabric) SetHostLinkImpairment(id NodeID, loss, corrupt float64, extra sim.Duration) bool {
	h := f.hosts[id]
	if h == nil {
		return false
	}
	for _, pt := range [...]*Port{h.port, h.port.peer} {
		pt.lossRate = loss
		pt.corruptRate = corrupt
		pt.extraDelay = extra
	}
	return true
}

// upArg is a link-state flight record's A: 1 for up, 0 for down.
func upArg(up bool) int64 {
	if up {
		return 1
	}
	return 0
}
