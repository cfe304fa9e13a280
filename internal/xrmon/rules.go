package xrmon

import (
	"fmt"

	"xrdma/internal/sim"
)

// IncidentClass is the diagnosis a correlation rule emits.
type IncidentClass uint8

const (
	// IncNodeDown: a previously active node's NIC counters flatlined
	// while peers report keepalive failures — machine or HCA death.
	IncNodeDown IncidentClass = iota
	// IncGrayLink: retransmits+corruption concentrated on one node —
	// the §V-A flaky-optic class, pinned to that node's access path.
	IncGrayLink
	// IncFabricBrownout: the same symptoms spread across racks — a
	// shared fabric element (spine/leaf tier) is degrading everyone.
	IncFabricBrownout
	// IncIncast: fleet-wide PFC pause/ECN with one node's tx bytes
	// dominating — congestion with a nameable aggressor.
	IncIncast
	// IncSlowReceiver: one node streams RNR NAKs — its application is
	// not reposting receives fast enough (Fig. 9's pathology).
	IncSlowReceiver
	// IncTenantOverload: one tenant's budget rejects/sheds/stalls —
	// the noisy neighbour is being clamped by the isolation plane.
	IncTenantOverload

	IncidentClassCount
)

var incidentClassName = [IncidentClassCount]string{
	IncNodeDown:       "node-down",
	IncGrayLink:       "gray-link",
	IncFabricBrownout: "fabric-brownout",
	IncIncast:         "incast",
	IncSlowReceiver:   "slow-receiver",
	IncTenantOverload: "tenant-overload",
}

func (c IncidentClass) String() string {
	if int(c) < len(incidentClassName) {
		return incidentClassName[c]
	}
	return "unknown"
}

// incidentKey identifies one live incident: same class + same culprit
// across epochs is one incident, not many.
type incidentKey struct {
	class   IncidentClass
	culprit string
}

// Incident is one ranked diagnosis: a class, the named culprit, the
// implicated nodes, supporting evidence (metric deltas, flight-dump
// references, the top blame stage) and a 0–100 confidence score. An
// incident opens when its rule first matches, escalates as evidence
// strengthens, and closes after CloseAfter quiet epochs.
type Incident struct {
	Class      IncidentClass
	Culprit    string
	Nodes      []int32
	OpenedAt   sim.Time
	LastSeen   sim.Time
	ClosedAt   sim.Time
	Epochs     int
	Confidence int
	Evidence   []string
	Closed     bool

	quiet      int
	seenEpoch  int64
	loggedConf int
}

func (inc *Incident) summaryLine() string {
	state := "open"
	if inc.Closed {
		state = "closed"
	}
	return fmt.Sprintf("incident class=%s culprit=%s opened=%v epochs=%d conf=%d %s",
		inc.Class, inc.Culprit, inc.OpenedAt, inc.Epochs, inc.Confidence, state)
}

// match is one rule firing in one epoch.
type match struct {
	class    IncidentClass
	culprit  string
	conf     int
	nodes    []int32
	evidence []string
}

// The rules' fixed thresholds, all windowed sums over the delta rings.
// WatchConfig holds the ones a world tunes.
const (
	minEpochs    int64 = 3  // warm-up before any rule may fire: the first deltas after attach are absolute values, not rates
	rnrStorm     int64 = 10 // rnr_nak_sent that marks a node a slow receiver
	tenantErrs   int64 = 3  // mem_rejects+sheds that mark a tenant overloaded...
	tenantStalls int64 = 20 // ...or rate_stalls
	ecnMin       int64 = 16 // fleet ecn_marks floor for incast when no PFC pause was seen
	incastShare  int64 = 45 // min percentage of fleet tx-bytes one node must hold to be named the incast aggressor
	grayShare    int64 = 60 // percentage of the fleet symptom mass that pins the fault to one node's link rather than the fabric
)

// evaluate runs every correlation rule over the current windows and
// reconciles the matches against the open incidents. Rules run in a
// fixed order and scan agents in registration order, so the incident
// log is bit-identical across runs and across -j parallelism.
func (c *Collector) evaluate(now sim.Time) {
	if c.epoch < minEpochs || len(c.agents) == 0 {
		return
	}
	var matches []match

	// Fleet-wide context shared by the rules.
	var kaW, corruptW int64
	for _, a := range c.agents {
		kaW += a.WindowSum(SlotKaFails)
		corruptW += a.WindowSum(SlotCorrupt)
	}
	pauseW := c.fleet.WindowSum(FSlotPauseTx)
	ecnW := c.fleet.WindowSum(FSlotECN)

	// Rule 1 — node-down. A live node's NIC always moves msgs_sent
	// within two epochs (keepalives fire every interval even under a
	// total partition), so a flatline on a previously active node means
	// the NIC itself is gone. Opening requires corroborating keepalive
	// failures somewhere in the fleet; once open, the flatline alone
	// keeps the incident alive (peer keepalive counters freeze after
	// their channels break, but the machine is still down).
	for _, a := range c.agents {
		if !a.active || a.Len() < 2 {
			continue
		}
		if a.LastN(SlotMsgsSent, 2)+a.LastN(SlotMsgsRecv, 2) != 0 {
			continue
		}
		key := incidentKey{IncNodeDown, nodeLabel(a.Node)}
		if kaW < 1 && c.open[key] == nil {
			continue
		}
		conf := 70
		if kaW > 0 {
			conf = 90
		}
		matches = append(matches, match{
			class:   IncNodeDown,
			culprit: nodeLabel(a.Node),
			conf:    conf,
			nodes:   []int32{a.Node},
			evidence: []string{
				fmt.Sprintf("node%d msgs window=0 (was active)", a.Node),
				fmt.Sprintf("fleet keepalive_fails window=%d", kaW),
			},
		})
	}

	// Rule 2 — slow receiver. One node streaming RNR NAKs (window ≥
	// rnrStorm and ≥ 2× the runner-up) is starving its receive queue.
	{
		var top *Agent
		var topW, secondW int64
		for _, a := range c.agents {
			w := a.WindowSum(SlotRNRSent)
			if top == nil || w > topW {
				secondW = topW
				top, topW = a, w
			} else if w > secondW {
				secondW = w
			}
		}
		if top != nil && topW >= rnrStorm && topW >= 2*secondW {
			conf := 60 + int(topW)
			if conf > 100 {
				conf = 100
			}
			matches = append(matches, match{
				class:   IncSlowReceiver,
				culprit: nodeLabel(top.Node),
				conf:    conf,
				nodes:   []int32{top.Node},
				evidence: []string{
					fmt.Sprintf("node%d rnr_nak_sent window=%d (runner-up %d)", top.Node, topW, secondW),
				},
			})
		}
	}

	// Rule 3 — tenant overload. The isolation plane is actively
	// clamping one tenant: budget rejects/sheds or rate stalls.
	for _, a := range c.agents {
		for t, ref := range a.tenants {
			rej := a.WindowSum(a.TenantSlot(t, TSlotMemRejects))
			sheds := a.WindowSum(a.TenantSlot(t, TSlotSheds))
			stalls := a.WindowSum(a.TenantSlot(t, TSlotRateStalls))
			if rej+sheds < tenantErrs && stalls < tenantStalls {
				continue
			}
			conf := 50 + int(rej+sheds)*5 + int(stalls)
			if conf > 100 {
				conf = 100
			}
			matches = append(matches, match{
				class:   IncTenantOverload,
				culprit: "tenant:" + ref.Label + "@" + nodeLabel(a.Node),
				conf:    conf,
				nodes:   []int32{a.Node},
				evidence: []string{
					fmt.Sprintf("tenant %s@node%d mem_rejects=%d sheds=%d rate_stalls=%d (window)",
						ref.Label, a.Node, rej, sheds, stalls),
				},
			})
		}
	}

	// Rule 4 — incast. Fabric-wide congestion signal (any PFC pause,
	// or ECN marks over the floor) plus one node holding the dominant
	// share of transmitted bytes: name the aggressor, record the top
	// receiver as the victim.
	if pauseW >= 1 || ecnW >= ecnMin {
		var totTx int64
		var agg *Agent
		var aggW int64
		for _, a := range c.agents {
			w := a.WindowSum(SlotBytesSent)
			totTx += w
			if agg == nil || w > aggW {
				agg, aggW = a, w
			}
		}
		if agg != nil && totTx > 0 && aggW*100 >= totTx*incastShare {
			var victim *Agent
			var vicW int64
			for _, a := range c.agents {
				if w := a.WindowSum(SlotBytesRecv); victim == nil || w > vicW {
					victim, vicW = a, w
				}
			}
			share := int(aggW * 100 / totTx)
			matches = append(matches, match{
				class:   IncIncast,
				culprit: nodeLabel(agg.Node),
				conf:    share,
				nodes:   []int32{agg.Node, victim.Node},
				evidence: []string{
					fmt.Sprintf("fleet pause_tx window=%d ecn_marks window=%d", pauseW, ecnW),
					fmt.Sprintf("aggressor node%d tx share=%d%% (%dB of %dB)", agg.Node, share, aggW, totTx),
					fmt.Sprintf("victim node%d rx window=%dB", victim.Node, vicW),
				},
			})
		}
	}

	// Rule 5 — gray link vs fabric brownout. Weighted symptom score
	// per node (the path-doctor weights: retransmits ×3, corruption
	// ×2); corruption somewhere in the fleet is required, which keeps
	// crash-induced peer retransmits from masquerading as link rot.
	// One dominant node ⇒ its link is gray; symptoms spread across
	// racks ⇒ a shared fabric element, pinned to the spine tier when
	// they span pods.
	if corruptW >= 2 {
		var symNodes []int32
		var totSym, topSym int64
		var top *Agent
		for _, a := range c.agents {
			s := 3*a.WindowSum(SlotRetx) + 2*a.WindowSum(SlotCorrupt)
			if s < c.cfg.GraySymptomMin {
				continue
			}
			symNodes = append(symNodes, a.Node)
			totSym += s
			if top == nil || s > topSym {
				top, topSym = a, s
			}
		}
		// While a fabric brownout is open, any persisting symptoms — even
		// transiently concentrated on one node — are still the fabric's
		// fault: keep the open incident fed instead of splitting it into
		// a parade of per-node gray links as the symptom mix shifts.
		openBrownout := ""
		for _, inc := range c.incidents {
			if !inc.Closed && inc.Class == IncFabricBrownout {
				openBrownout = inc.Culprit
				break
			}
		}
		if top != nil {
			if openBrownout != "" {
				racks, pods := c.spread(symNodes)
				conf := 40 + 10*racks
				if conf > 100 {
					conf = 100
				}
				matches = append(matches, match{
					class:   IncFabricBrownout,
					culprit: openBrownout,
					conf:    conf,
					nodes:   symNodes,
					evidence: []string{
						fmt.Sprintf("%d nodes symptomatic across %d racks / %d pods", len(symNodes), racks, pods),
						fmt.Sprintf("fleet corrupt_drops window=%d, symptom mass=%d", corruptW, totSym),
					},
				})
			} else if topSym*100 >= totSym*grayShare {
				path := nodeLabel(top.Node)
				if loc, ok := c.loc[top.Node]; ok {
					path = "host" + itoa(int64(top.Node)) + "<->" + loc.Rack
				}
				share := int(topSym * 100 / totSym)
				matches = append(matches, match{
					class:   IncGrayLink,
					culprit: nodeLabel(top.Node),
					conf:    share,
					nodes:   []int32{top.Node},
					evidence: []string{
						fmt.Sprintf("node%d retransmits window=%d corrupt_drops window=%d (symptom share %d%%)",
							top.Node, top.WindowSum(SlotRetx), top.WindowSum(SlotCorrupt), share),
						"path: " + path,
					},
				})
			} else if racks, pods := c.spread(symNodes); racks >= 2 {
				culprit := "fabric"
				if pods >= 2 {
					culprit = "fabric:spine"
				} else if pods == 1 {
					for _, n := range symNodes {
						if loc, ok := c.loc[n]; ok && loc.Pod != "" {
							culprit = "fabric:" + loc.Pod
							break
						}
					}
				}
				conf := 40 + 10*racks
				if conf > 100 {
					conf = 100
				}
				matches = append(matches, match{
					class:   IncFabricBrownout,
					culprit: culprit,
					conf:    conf,
					nodes:   symNodes,
					evidence: []string{
						fmt.Sprintf("%d nodes symptomatic across %d racks / %d pods", len(symNodes), racks, pods),
						fmt.Sprintf("fleet corrupt_drops window=%d, symptom mass=%d", corruptW, totSym),
					},
				})
			}
		}
	}

	c.reconcile(matches, now)
}

// reconcile folds this epoch's matches into the incident set.
func (c *Collector) reconcile(matches []match, now sim.Time) {
	for i := range matches {
		m := &matches[i]
		key := incidentKey{m.class, m.culprit}
		inc := c.open[key]
		if inc == nil {
			// Hysteresis: a rule must match OpenAfter consecutive epochs
			// before its incident opens.
			p := c.pending[key]
			if p == nil {
				p = &pendingMatch{}
				c.pending[key] = p
			}
			if p.epoch == c.epoch-1 {
				p.count++
			} else {
				p.count = 1
			}
			p.epoch = c.epoch
			if p.count < c.cfg.OpenAfter {
				continue
			}
			delete(c.pending, key)
			inc = &Incident{
				Class:      m.class,
				Culprit:    m.culprit,
				Nodes:      m.nodes,
				OpenedAt:   now,
				LastSeen:   now,
				Epochs:     1,
				Confidence: m.conf,
				loggedConf: m.conf,
			}
			inc.Evidence = append(inc.Evidence, m.evidence...)
			// Attach corroborating context frozen at open time: any new
			// flight-recorder dumps since the last incident, and the
			// current top blame stage if tracing is on.
			for _, d := range c.set.Flight.Dumps() {
				if d.Seq <= c.lastDump {
					continue
				}
				c.lastDump = d.Seq
				inc.Evidence = append(inc.Evidence,
					fmt.Sprintf("flight-dump: %s node=%d t=%v", d.Reason, d.Node, d.At))
			}
			if top, dur := c.set.Blame.Top(); dur > 0 {
				inc.Evidence = append(inc.Evidence, "blame-top: "+top.String())
			}
			c.open[key] = inc
			c.incidents = append(c.incidents, inc)
			c.logf("t=%v open class=%s culprit=%s conf=%d", now, inc.Class, inc.Culprit, inc.Confidence)
			if c.onIncident != nil {
				c.onIncident(inc, "open")
			}
		} else {
			inc.Epochs++
			inc.LastSeen = now
			inc.quiet = 0
			if m.conf > inc.Confidence {
				inc.Confidence = m.conf
			}
			if inc.Confidence >= inc.loggedConf+10 {
				inc.loggedConf = inc.Confidence
				c.logf("t=%v escalate class=%s culprit=%s conf=%d epochs=%d",
					now, inc.Class, inc.Culprit, inc.Confidence, inc.Epochs)
				if c.onIncident != nil {
					c.onIncident(inc, "escalate")
				}
			}
		}
		inc.seenEpoch = c.epoch
	}
	for key, p := range c.pending {
		if p.epoch < c.epoch { // streak broken this epoch — forget it
			delete(c.pending, key)
		}
	}
	for _, inc := range c.incidents {
		if inc.Closed || inc.seenEpoch == c.epoch {
			continue
		}
		inc.quiet++
		if inc.quiet >= c.cfg.CloseAfter {
			inc.Closed = true
			inc.ClosedAt = now
			delete(c.open, incidentKey{inc.Class, inc.Culprit})
			c.logf("t=%v close class=%s culprit=%s epochs=%d", now, inc.Class, inc.Culprit, inc.Epochs)
			if c.onIncident != nil {
				c.onIncident(inc, "close")
			}
		}
	}
}
