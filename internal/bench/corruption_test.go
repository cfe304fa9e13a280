package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"xrdma/internal/chaos"
	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// TestCorruptionAccounting drives a request load across a link that
// corrupts frames and audits the damage end to end: every corrupt frame
// the fabric produced is dropped and counted at a NIC (the two ledgers
// must match exactly), and not one corrupt byte reaches the application
// — payload integrity survives because go-back-N retransmits what the
// NIC discarded.
func TestCorruptionAccounting(t *testing.T) {
	c := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   grayNIC(), // fast RTO so go-back-N keeps pace with the damage
		Nodes:    8,
		Config: func(_ int, cfg *xrdma.Config) {
			cfg.PathDoctor = false // keep traffic pinned to the corrupting path
		},
		Seed: 42,
	})
	eng := c.Eng

	pattern := func(id uint64) []byte {
		buf := make([]byte, 64)
		binary.LittleEndian.PutUint64(buf, id)
		for i := 8; i < len(buf); i++ {
			buf[i] = byte(id*7 + uint64(i))
		}
		return buf
	}

	var payloadErrs, delivered int
	c.ListenAll(7500, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			id := binary.LittleEndian.Uint64(m.Data)
			delivered++
			if !bytes.Equal(m.Data, pattern(id)) {
				payloadErrs++
			}
			m.Reply(m.Data[:8], 0)
		})
	})

	ch := c.Establish([][2]int{{0, 4}}, 7500)[0]

	// Corrupt (never lose) frames on the exact spine path the channel
	// rides, in both directions of the link.
	inj := chaos.New(c)
	idx := fabric.ECMPIndex(ch.FlowHash(), 2)
	inj.Brownout("pod0-tor0", fmt.Sprintf("pod0-leaf%d", idx), 0, 0.2, 0)

	const total = 200
	start := eng.Now()
	sent := 0
	resps := map[uint64]bool{}
	var tick func()
	tick = func() {
		if sent >= total {
			return
		}
		id := uint64(sent)
		sent++
		ch.SendMsg(pattern(id), 0, func(m *xrdma.Msg, err error) {
			if err == nil {
				resps[binary.LittleEndian.Uint64(m.Data)] = true
			}
		})
		eng.AfterBg(500*sim.Microsecond, tick)
	}
	eng.AfterBg(500*sim.Microsecond, tick)
	eng.RunUntil(start.Add(1000 * sim.Millisecond))

	if delivered != total {
		t.Errorf("server saw %d of %d requests", delivered, total)
	}
	if len(resps) != total {
		t.Errorf("client got %d of %d responses", len(resps), total)
	}
	if payloadErrs != 0 {
		t.Errorf("%d corrupted payloads reached the application", payloadErrs)
	}

	// The two corruption ledgers must agree: frames damaged by the
	// fabric vs frames dropped at receiving NICs.
	fabCorrupt := c.Fab.Stats.Corrupted
	var nicDrops int64
	for _, n := range c.Nodes {
		nicDrops += n.NIC.Counters.CorruptDrops
	}
	if fabCorrupt == 0 {
		t.Fatalf("fault injected but fabric corrupted no frames — drill is vacuous")
	}
	if nicDrops != fabCorrupt {
		t.Errorf("accounting mismatch: fabric corrupted %d frames, NICs dropped %d", fabCorrupt, nicDrops)
	}
}

// TestCorruptionBlameIsolation: corrupt drops are charged to the
// destination QP, so damage on one channel's spine path must never
// sicken another channel that shares the node. The cross-ToR pair rides
// the browned-out leaf tier and must re-path; the same-ToR channel on
// the same NIC (whose node-global CorruptDrops counter is climbing the
// whole time) never touches a leaf and its doctor must stay Clean — no
// sympathy rotations, no escalation.
func TestCorruptionBlameIsolation(t *testing.T) {
	c := cluster.New(cluster.Options{
		Topology: fabric.SmallClos(),
		NICCfg:   grayNIC(),
		Nodes:    8,
		Config:   grayKnobs(true),
		Seed:     42,
	})
	eng := c.Eng

	var srvCross *xrdma.Channel
	c.ListenAll(7600, func(n *cluster.Node, ch *xrdma.Channel) {
		if n.ID == 4 {
			srvCross = ch
		}
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(m.Retain(), m.Len) })
	})
	chs := c.Establish([][2]int{{0, 4}, {0, 1}}, 7600)
	cross, local := chs[0], chs[1]
	if srvCross == nil {
		t.Fatal("channel establishment failed")
	}

	// Brown out both legs the cross-ToR pair rides — the client's TX leaf
	// at tor0 and the server's TX leaf at tor1 — so corrupt frames are
	// guaranteed to be dropped (and counted) at node 0's NIC, the node
	// the healthy channel shares.
	inj := chaos.New(c)
	idxC := fabric.ECMPIndex(cross.FlowHash(), 2)
	idxS := fabric.ECMPIndex(srvCross.FlowHash(), 2)
	inj.Brownout("pod0-tor0", fmt.Sprintf("pod0-leaf%d", idxC), 0, 0.05, 20*sim.Microsecond)
	if idxS != idxC {
		inj.Brownout("pod0-tor1", fmt.Sprintf("pod0-leaf%d", idxS), 0, 0.05, 20*sim.Microsecond)
	}

	start := eng.Now()
	every(eng, 500*sim.Microsecond, 300*sim.Millisecond, func() {
		for _, ch := range []*xrdma.Channel{cross, local} {
			buf := make([]byte, 16)
			ch.SendMsg(buf, 0, func(m *xrdma.Msg, err error) {})
		}
	})
	eng.RunUntil(start.Add(400 * sim.Millisecond))

	if cross.Rehashes()+srvCross.Rehashes() == 0 {
		t.Error("cross-ToR pair never re-pathed off the damaged leaves — drill is vacuous")
	}
	if got := c.Nodes[0].NIC.Counters.CorruptDrops; got == 0 {
		t.Error("node 0 NIC saw no corrupt drops — drill not exercising shared-node blame")
	}
	if v := local.PathVerdict(); v != xrdma.PathClean {
		t.Errorf("same-ToR channel verdict %v — blamed for another path's damage", v)
	}
	if n := local.Rehashes(); n != 0 {
		t.Errorf("same-ToR channel rotated its flow label %d times on an undamaged path", n)
	}
	if lg := local.PathLog(); len(lg) != 0 {
		t.Errorf("same-ToR channel saw verdict transitions: %v", lg)
	}
}
