package workload

import (
	"testing"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

func TestSizeDists(t *testing.T) {
	r := sim.NewRNG(1)
	if Fixed(128)(r) != 128 {
		t.Fatal("Fixed broken")
	}
	for i := 0; i < 1000; i++ {
		v := Uniform(10, 20)(r)
		if v < 10 || v > 20 {
			t.Fatalf("Uniform out of range: %d", v)
		}
	}
	d := MiceElephants(100, 100000, 0.3)
	large := 0
	for i := 0; i < 10000; i++ {
		if d(r) == 100000 {
			large++
		}
	}
	if large < 2700 || large > 3300 {
		t.Fatalf("elephant fraction off: %d/10000", large)
	}
}

func pairWorld(t testing.TB) (*cluster.Cluster, *xrdma.Channel) {
	t.Helper()
	c := cluster.New(cluster.Options{Topology: fabric.SmallClos(), Nodes: 2})
	c.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 32) })
	})
	return c, c.Establish([][2]int{{0, 1}}, 7000)[0]
}

func TestOpenLoopRate(t *testing.T) {
	c, ch := pairWorld(t)
	var lats []sim.Duration
	g := NewOpenLoop(ch, 100*sim.Microsecond, Fixed(256), 9)
	g.OnResult = func(r Result) {
		if r.Err == nil {
			lats = append(lats, r.Latency)
		}
	}
	g.Start()
	c.Eng.RunFor(100 * sim.Millisecond)
	g.Stop()
	c.Eng.RunFor(10 * sim.Millisecond)
	// ~1000 arrivals expected in 100ms at 100µs mean.
	if g.Issued < 800 || g.Issued > 1200 {
		t.Fatalf("open loop issued %d, want ≈1000", g.Issued)
	}
	if int64(len(lats)) != g.Done || g.Done < g.Issued-5 {
		t.Fatalf("done=%d issued=%d lats=%d", g.Done, g.Issued, len(lats))
	}
	for _, l := range lats {
		if l <= 0 {
			t.Fatal("non-positive latency")
		}
	}
}

func TestClosedLoopDepth(t *testing.T) {
	c, ch := pairWorld(t)
	g := NewClosedLoop(ch, 8, Fixed(512), 5)
	g.Start()
	c.Eng.RunFor(10 * sim.Millisecond)
	g.Stop()
	c.Eng.Run()
	if g.Done < 100 {
		t.Fatalf("closed loop completed only %d", g.Done)
	}
	// With the loop stopped everything drains.
	if ch.Inflight() != 0 {
		t.Fatalf("requests still inflight after stop: %d", ch.Inflight())
	}
}

func TestPanguReplication(t *testing.T) {
	c := cluster.New(cluster.Options{Topology: fabric.SmallClos()})
	p := NewPangu(c, []int{0, 1}, []int{4, 5, 6}, 3)
	c.Eng.Run()
	if !p.Ready() {
		t.Fatal("pangu mesh not ready")
	}
	done := 0
	for i := 0; i < 20; i++ {
		p.Write(0, 128<<10, func(err error) {
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			done++
		})
	}
	c.Eng.Run()
	if done != 20 {
		t.Fatalf("writes completed %d/20", done)
	}
	if p.Replicas2 != 60 {
		t.Fatalf("replica messages = %d, want 60", p.Replicas2)
	}
}

func TestESSDThroughput(t *testing.T) {
	c := cluster.New(cluster.Options{Topology: fabric.SmallClos()})
	p := NewPangu(c, []int{0, 1}, []int{4, 5, 6, 7}, 2)
	c.Eng.Run()
	e := NewESSD(p, 128<<10, 4)
	var lat sim.Summary
	e.Start(func(block int, l sim.Duration) { lat.AddDuration(l) })
	c.Eng.RunFor(50 * sim.Millisecond)
	e.Stop()
	c.Eng.Run()
	if e.Completed < 50 {
		t.Fatalf("ESSD completed only %d writes", e.Completed)
	}
	iops := float64(e.Completed) / 0.05
	t.Logf("ESSD: %d writes (%.0f IOPS), mean %.1fµs P99 %.1fµs",
		e.Completed, iops, lat.Mean(), lat.Percentile(99))
	if lat.Percentile(99) <= 0 {
		t.Fatal("latency summary empty")
	}
}

func TestXDBProfileShape(t *testing.T) {
	r := sim.NewRNG(3)
	d := XDBProfile()
	small, big := 0, 0
	for i := 0; i < 10000; i++ {
		v := d(r)
		if v <= 1024 {
			small++
		}
		if v > 4096 {
			big++
		}
	}
	if small < 8000 {
		t.Fatalf("point queries %d/10000, want ≥80%%", small)
	}
	if big == 0 {
		t.Fatal("no scans generated")
	}
}
