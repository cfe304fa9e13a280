package cluster

import (
	"fmt"
	"strings"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

func TestBuildAndFullMesh(t *testing.T) {
	c := New(Options{Topology: fabric.SmallClos()})
	if len(c.Nodes) != 8 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	c.ListenAll(7000, nil)
	pairs := FullMeshPairs(4)
	if len(pairs) != 6 {
		t.Fatalf("full mesh pairs = %d", len(pairs))
	}
	var chans []*xrdma.Channel
	c.ConnectPairs(pairs, 7000, func(chs []*xrdma.Channel) { chans = chs })
	c.Eng.Run()
	if len(chans) != 6 {
		t.Fatal("mesh establishment incomplete")
	}
	for _, ch := range chans {
		if ch == nil || ch.Closed() {
			t.Fatal("dead channel in mesh")
		}
	}
	// Traffic across one mesh edge.
	got := false
	server := c.Nodes[chans[0].Peer].Ctx
	for _, sch := range server.Channels() {
		sch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 16) })
	}
	chans[0].SendMsg(nil, 100, func(m *xrdma.Msg, err error) { got = err == nil })
	c.Eng.Run()
	if !got {
		t.Fatal("mesh channel carried no traffic")
	}
}

// TestEstablish: the channels come back indexed like the pairs, an empty
// list is nil, and a pair that never comes up (its target's NIC died before
// the dial, which then waits forever) panics naming that pair.
func TestEstablish(t *testing.T) {
	c := New(Options{Topology: fabric.SmallClos(), Nodes: 4})
	c.ListenAll(7000, nil)
	pairs := [][2]int{{0, 1}, {2, 1}, {1, 3}}
	for i, ch := range c.Establish(pairs, 7000) {
		if ch == nil || ch.Peer != c.Nodes[pairs[i][1]].ID {
			t.Fatalf("channel %d = %v, want one to node %d", i, ch, pairs[i][1])
		}
	}
	if chans := c.Establish(nil, 7000); chans != nil {
		t.Fatalf("empty list gave %v", chans)
	}
	c.Nodes[2].NIC.Crash()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "[[3 2]]") {
			t.Fatalf("panic %q does not name the pair that stayed down", msg)
		}
	}()
	c.Establish([][2]int{{0, 3}, {3, 2}}, 7000)
}

func TestFanInPairs(t *testing.T) {
	pairs := FanInPairs(5, 2)
	if len(pairs) != 4 {
		t.Fatalf("fan-in pairs = %d", len(pairs))
	}
	for _, p := range pairs {
		if p[1] != 2 || p[0] == 2 {
			t.Fatalf("bad pair %v", p)
		}
	}
}

func TestClockSkewApplied(t *testing.T) {
	c := New(Options{
		Topology:  fabric.SmallClos(),
		Nodes:     2,
		ClockSkew: func(node int) sim.Duration { return sim.Duration(node) * 100 * sim.Microsecond },
	})
	c.Eng.RunFor(1 * sim.Millisecond)
	d0 := c.Nodes[0].Ctx.LocalClock()
	d1 := c.Nodes[1].Ctx.LocalClock()
	if d1-d0 != sim.Time(100*sim.Microsecond) {
		t.Fatalf("skew not applied: %v vs %v", d0, d1)
	}
}

func TestPerNodeConfig(t *testing.T) {
	c := New(Options{
		Topology: fabric.SmallClos(),
		Nodes:    2,
		Config: func(node int, cfg *xrdma.Config) {
			if node == 1 {
				cfg.WindowDepth = 7
			}
		},
	})
	if c.Nodes[0].Ctx.Config().WindowDepth == 7 || c.Nodes[1].Ctx.Config().WindowDepth != 7 {
		t.Fatal("per-node config not applied")
	}
}
