// xr-ping builds the full-mesh connection matrix of §VI-B: every node
// pings every peer it shares a channel with, and the RTTs are gathered
// into the matrix view used to spot broken or slow paths.
// A -slow flag delays one node's NIC to show how the matrix exposes it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

func main() {
	nodes := flag.Int("nodes", 6, "cluster size")
	slow := flag.Int("slow", -1, "node whose NIC gets 200µs filter delay (-1 = none)")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()
	if err := checkSlow(*slow, *nodes); err != nil {
		fmt.Fprintf(os.Stderr, "xr-ping: %v\n", err)
		os.Exit(2)
	}

	c := cluster.New(cluster.Options{
		Topology: fabric.ClusterClos(*nodes), Nodes: *nodes, Seed: *seed,
	})
	c.ListenAll(7000, nil)
	fmt.Printf("mesh: %d channels across %d nodes\n", len(c.Establish(cluster.FullMeshPairs(*nodes), 7000)), *nodes)

	if *slow >= 0 {
		if err := c.Nodes[*slow].Ctx.SetFlag("filter_delay_us", "200"); err != nil {
			panic(err)
		}
		fmt.Printf("injected 200µs delay on node %d\n", *slow)
	}

	var mx matrix
	pingMatrix(c, func(m matrix) { mx = m })
	c.Eng.Run()
	fmt.Println("\nRTT matrix (µs):")
	fmt.Print(renderMatrix(mx, c.Nodes))
}

// checkSlow rejects a -nodes below 1 and a -slow that names no node of an
// n-node mesh; -1 is none.
func checkSlow(slow, n int) error {
	if n < 1 {
		return fmt.Errorf("-nodes %d names no node (want at least 1)", n)
	}
	if slow < -1 || slow >= n {
		return fmt.Errorf("-slow %d names no node of the %d-node mesh (-1 for none)", slow, n)
	}
	return nil
}

// matrix holds RTTs keyed by [src][dst]; pairs without a channel are absent.
type matrix map[fabric.NodeID]map[fabric.NodeID]sim.Duration

// pingMatrix pings, from every node, each peer it shares a live channel
// with; done fires when all outstanding pings resolve.
func pingMatrix(c *cluster.Cluster, done func(matrix)) {
	result := make(matrix)
	outstanding := 0
	finished := false
	check := func() {
		if outstanding == 0 && finished {
			done(result)
		}
	}
	for _, n := range c.Nodes { // index order: issue order decides the RTTs
		seen := make(map[fabric.NodeID]bool)
		for _, ch := range n.Ctx.Channels() {
			if seen[ch.Peer] || ch.Closed() {
				continue
			}
			seen[ch.Peer] = true
			src, dst := n.ID, ch.Peer
			outstanding++
			ch.Ping(func(rtt, _ sim.Duration, err error) {
				outstanding--
				if err == nil {
					if result[src] == nil {
						result[src] = make(map[fabric.NodeID]sim.Duration)
					}
					result[src][dst] = rtt
				}
				check()
			})
		}
	}
	finished = true
	check()
}

// renderMatrix prints a ping matrix with microsecond entries.
func renderMatrix(mx matrix, nodes []*cluster.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s", "")
	for _, d := range nodes {
		fmt.Fprintf(&b, "%8d", d.ID)
	}
	b.WriteByte('\n')
	for _, s := range nodes {
		fmt.Fprintf(&b, "%6d", s.ID)
		for _, d := range nodes {
			if rtt, ok := mx[s.ID][d.ID]; ok {
				fmt.Fprintf(&b, "%7.1fu", rtt.Micros())
			} else {
				fmt.Fprintf(&b, "%8s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
