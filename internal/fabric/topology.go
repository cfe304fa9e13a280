package fabric

import "fmt"

// Topology describes a clos network like Alibaba's HAIL architecture
// (Fig. 1 of the paper): PODs of ToR and leaf switches under a spine layer,
// with a configurable number of hosts per ToR.
type Topology struct {
	Pods         int
	LeavesPerPod int
	TorsPerPod   int
	HostsPerTor  int
}

// SmallClos is a compact topology for microbenchmarks: one pod, two leaves,
// two ToRs, four hosts per ToR.
func SmallClos() Topology {
	return Topology{Pods: 1, LeavesPerPod: 2, TorsPerPod: 2, HostsPerTor: 4}
}

// ClusterClos approximates one production sub-cluster at reduced scale.
// Up to 256 hosts fit a single pod (16 ToRs of 16 hosts); beyond that
// the ToRs split across spine-connected pods of at most 16 ToRs each,
// matching the paper's multi-pod HAIL fabric — a 4000-host ask yields a
// 16-pod clos rather than one implausibly wide pod.
func ClusterClos(hosts int) Topology {
	torNeeded := (hosts + 15) / 16
	if torNeeded < 2 {
		torNeeded = 2
	}
	pods := (torNeeded + 15) / 16
	tors := (torNeeded + pods - 1) / pods
	return Topology{Pods: pods, LeavesPerPod: 4, TorsPerPod: tors, HostsPerTor: 16}
}

// Hosts reports how many hosts the topology contains.
func (t Topology) Hosts() int { return t.Pods * t.TorsPerPod * t.HostsPerTor }

// BuildClos constructs the switches, hosts and links, and computes ECMP
// route tables. Host IDs are assigned 0..Hosts()-1 in (pod, tor, slot)
// order.
func BuildClos(f *Fabric, t Topology) {
	if t.Pods < 1 || t.LeavesPerPod < 1 || t.TorsPerPod < 1 || t.HostsPerTor < 1 {
		panic("fabric: invalid topology")
	}
	spines := t.LeavesPerPod // one spine plane per leaf position
	spineSw := make([]*Switch, spines)
	if t.Pods > 1 {
		for i := range spineSw {
			spineSw[i] = f.newSwitch(fmt.Sprintf("spine%d", i), 2)
		}
	}

	id := NodeID(0)
	for pod := 0; pod < t.Pods; pod++ {
		leaves := make([]*Switch, t.LeavesPerPod)
		for l := range leaves {
			leaves[l] = f.newSwitch(fmt.Sprintf("pod%d-leaf%d", pod, l), 1)
			if t.Pods > 1 {
				// Each leaf connects to its spine plane.
				pl, ps := f.link(leaves[l], spineSw[l], fabricLinkBps, swPropDelay)
				leaves[l].ports = append(leaves[l].ports, pl)
				spineSw[l].ports = append(spineSw[l].ports, ps)
				leaves[l].uplinks = append(leaves[l].uplinks, pl)
				spineSw[l].downlinks = append(spineSw[l].downlinks, downlink{port: ps, pod: pod})
			}
		}
		for tor := 0; tor < t.TorsPerPod; tor++ {
			sw := f.newSwitch(fmt.Sprintf("pod%d-tor%d", pod, tor), 0)
			for _, leaf := range leaves {
				pt, pl := f.link(sw, leaf, fabricLinkBps, swPropDelay)
				sw.ports = append(sw.ports, pt)
				leaf.ports = append(leaf.ports, pl)
				sw.uplinks = append(sw.uplinks, pt)
				leaf.downlinks = append(leaf.downlinks, downlink{port: pl, tor: sw})
			}
			for slot := 0; slot < t.HostsPerTor; slot++ {
				h := &Host{ID: id, fab: f}
				ph, pt := f.link(h, sw, hostLinkBps, hostPropDelay)
				ph.unbounded = true
				h.port = ph
				sw.ports = append(sw.ports, pt)
				sw.hostPorts = append(sw.hostPorts, hostlink{port: pt, id: id})
				sw.pod = pod
				f.hosts[id] = h
				id++
			}
		}
	}
	f.computeRoutes()
}

type downlink struct {
	port *Port
	tor  *Switch // leaf → tor
	pod  int     // spine → pod
}

type hostlink struct {
	port *Port
	id   NodeID
}

func (f *Fabric) newSwitch(label string, tier int) *Switch {
	s := &Switch{Label: label, Tier: tier, fab: f}
	f.switches = append(f.switches, s)
	f.tel.Reg.Fields("fabric."+label, s)
	return s
}

// computeRoutes fills each switch's per-destination ECMP port sets using
// the clos hierarchy: ToRs send unknown destinations up to all leaves,
// leaves route to member ToRs or up to their spine plane, spines route to
// the destination pod's leaf.
func (f *Fabric) computeRoutes() {
	// Map host → its ToR and pod for downward routing.
	hostTor := make(map[NodeID]*Switch)
	for _, sw := range f.switches {
		if sw.Tier != 0 {
			continue
		}
		for _, hl := range sw.hostPorts {
			hostTor[hl.id] = sw
		}
	}
	for _, sw := range f.switches {
		sw.routes = make([][]*Port, len(f.hosts))
		for id := range f.hosts {
			dstTor := hostTor[id]
			switch sw.Tier {
			case 0: // ToR
				if dstTor == sw {
					for _, hl := range sw.hostPorts {
						if hl.id == id {
							sw.routes[id] = []*Port{hl.port}
						}
					}
				} else {
					sw.routes[id] = sw.uplinks
				}
			case 1: // leaf
				found := false
				for _, dl := range sw.downlinks {
					if dl.tor == dstTor {
						sw.routes[id] = []*Port{dl.port}
						found = true
						break
					}
				}
				if !found {
					sw.routes[id] = sw.uplinks
				}
			case 2: // spine
				for _, dl := range sw.downlinks {
					if dl.pod == dstTor.pod {
						sw.routes[id] = []*Port{dl.port}
					}
				}
			}
		}
	}
}
