// xr-adm demonstrates the tuning system of §VI-D: online parameters are
// distributed to running contexts at runtime (keepalive interval, tracing
// mode, filter settings), offline parameters are rejected, and every
// change lands in the per-context flag log.
package main

import (
	"flag"
	"fmt"
	"os"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

func main() {
	nodes := flag.Int("nodes", 3, "cluster size")
	flag.Parse()
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "xr-adm: -nodes %d names no node (want at least 1)\n", *nodes)
		os.Exit(2)
	}

	c := cluster.New(cluster.Options{Topology: fabric.ClusterClos(*nodes), Nodes: *nodes})
	c.ListenAll(7000, func(n *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 32) })
	})
	chans := c.Establish(cluster.FullMeshPairs(*nodes), 7000)

	fmt.Println("online parameters:", xrdma.OnlineFlagNames())

	// Distribute a configuration change fleet-wide, mid-traffic.
	for _, ch := range chans {
		ch.SendMsg(nil, 256, nil)
	}
	for i, n := range c.Nodes {
		must(n.Ctx.SetFlag("reqrsp_mode", "on"))
		must(n.Ctx.SetFlag("keepalive_intv_ms", "5"))
		must(n.Ctx.SetFlag("trace_sample_mask", "3")) // sample 1 in 4
		fmt.Printf("node %d reconfigured (reqrsp=%v keepalive=%v)\n",
			i, n.Ctx.Config().ReqRspMode, n.Ctx.Config().KeepaliveInterval)
	}
	c.Eng.RunFor(50 * sim.Millisecond)

	// Offline parameters stay fixed at runtime.
	if err := c.Nodes[0].Ctx.SetFlag("use_srq", "1"); err != nil {
		fmt.Println("offline parameter correctly rejected:", err)
	}
	if err := c.Nodes[0].Ctx.SetFlag("bogus", "1"); err != nil {
		fmt.Println("unknown parameter correctly rejected:", err)
	}

	// Traffic under the new settings is traced: sampled round trips land in
	// the node's RTT histogram.
	done := 0
	for _, ch := range chans {
		ch.SendMsg(nil, 512, func(m *xrdma.Msg, err error) { done++ })
	}
	c.Eng.RunFor(50 * sim.Millisecond)
	rtts, _ := c.Nodes[0].Ctx.Telemetry().Reg.Value("xrdma.0.rtt_ns")
	fmt.Printf("%d traced round trips; node 0 rtt_ns histogram count: %d\n", done, rtts)

	fmt.Println("\nflag log on node 0:")
	for _, fc := range c.Nodes[0].Ctx.FlagLog() {
		fmt.Printf("  %v %s=%s\n", fc.At, fc.Name, fc.Value)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
