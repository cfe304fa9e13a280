package main

import (
	"strings"
	"testing"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// mesh builds an n-node cluster with every pair connected.
func mesh(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Options{Topology: fabric.SmallClos(), Nodes: n})
	c.ListenAll(7000, nil)
	if chans := c.Establish(cluster.FullMeshPairs(n), 7000); len(chans) != n*(n-1)/2 {
		t.Fatalf("mesh has %d channels", len(chans))
	}
	return c
}

func TestPingAndMatrix(t *testing.T) {
	c := mesh(t, 3)
	var rtt sim.Duration
	c.Nodes[0].Ctx.Channels()[0].Ping(func(r, _ sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		rtt = r
	})
	c.Eng.Run()
	if rtt < 2*sim.Microsecond || rtt > 50*sim.Microsecond {
		t.Fatalf("ping rtt %v implausible", rtt)
	}
	var mx matrix
	pingMatrix(c, func(m matrix) { mx = m })
	c.Eng.Run()
	if mx == nil || mx[0][1] == 0 || mx[0][2] == 0 {
		t.Fatalf("ping matrix incomplete: %v", mx)
	}
	if out := renderMatrix(mx, c.Nodes); len(out) == 0 {
		t.Fatal("empty matrix rendering")
	}
}

// TestPingMatrixDeterministic: the matrix is a function of the world, not of
// map iteration order — the order pings are issued in decides who queues
// behind whom, and so the RTTs. Two builds of one world must agree to the event.
func TestPingMatrixDeterministic(t *testing.T) {
	build := func() (string, uint64) {
		c := mesh(t, 4)
		var out string
		pingMatrix(c, func(m matrix) { out = renderMatrix(m, c.Nodes) })
		c.Eng.Run()
		if strings.Count(out, "u") != 12 {
			t.Fatalf("matrix of a 4-node full mesh has holes:\n%s", out)
		}
		return out, c.Eng.Fired()
	}
	out, fired := build()
	for i := 0; i < 4; i++ {
		if again, firedAgain := build(); again != out || firedAgain != fired {
			t.Fatalf("run %d differs (Fired %d vs %d):\n%s\nvs\n%s", i, firedAgain, fired, again, out)
		}
	}
}

// TestSlowNamesANode: -nodes must be at least 1, and -slow must name a node
// of the mesh or be -1 (none); anything else is refused instead of printing
// a clean matrix.
func TestSlowNamesANode(t *testing.T) {
	for _, tc := range []struct {
		slow, n int
		ok      bool
	}{{-1, 6, true}, {0, 6, true}, {5, 6, true}, {6, 6, false}, {-2, 6, false},
		{-1, 1, true}, {0, 1, true}, {-1, 0, false}, {-1, -3, false}} {
		if err := checkSlow(tc.slow, tc.n); (err == nil) != tc.ok {
			t.Errorf("checkSlow(%d, %d) = %v, want ok=%v", tc.slow, tc.n, err, tc.ok)
		}
	}
}
