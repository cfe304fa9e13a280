// xr-server runs a standing echo server while synthetic clients arrive,
// work and leave — the long-running-daemon view of the toolset (§IV-A
// lists XR-server among the five utilities). It dumps XR-Stat
// periodically, showing channel churn, QP-cache reuse and memory-cache
// behaviour over time.
package main

import (
	"flag"
	"fmt"
	"os"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/workload"
	"xrdma/internal/xrdma"
)

func main() {
	clients := flag.Int("clients", 6, "client nodes")
	rounds := flag.Int("rounds", 4, "arrive/work/leave rounds")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()
	if *clients < 1 {
		fmt.Fprintf(os.Stderr, "xr-server: -clients %d names no client (want at least 1)\n", *clients)
		os.Exit(2)
	}

	c := cluster.New(cluster.Options{
		Topology: fabric.ClusterClos(*clients + 1), Nodes: *clients + 1, Seed: *seed,
	})
	server := c.Nodes[0].Ctx
	server.OnChannel(func(ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(nil, 256) })
	})
	if err := server.Listen(7000); err != nil {
		panic(err)
	}

	rng := sim.NewRNG(*seed)
	for round := 0; round < *rounds; round++ {
		chans := c.Establish(cluster.FanInPairs(*clients+1, 0), 7000)
		var gens []*workload.OpenLoop
		for i, ch := range chans {
			g := workload.NewOpenLoop(ch, 200*sim.Microsecond,
				workload.MiceElephants(512, 64<<10, 0.15), *seed+uint64(round*100+i))
			g.Start()
			gens = append(gens, g)
		}
		c.Eng.RunFor(sim.Duration(100+rng.Intn(100)) * sim.Millisecond)
		for _, g := range gens {
			g.Stop()
		}
		c.Eng.RunFor(10 * sim.Millisecond)
		fmt.Printf("--- round %d (t=%v) ---\n", round, c.Eng.Now())
		fmt.Print(xrdma.XRStat(server))
		for _, ch := range chans {
			ch.Close()
		}
		c.Eng.Run()
		fmt.Printf("clients left: qp-cache=%d (reused next round), mem in-use=%d\n\n",
			server.QPs.Len(), server.Mem.InUseBytes)
	}
	fmt.Printf("server lifetime: opened=%d closed=%d broken=%d keepalive probes=%d\n",
		server.Stats.ChannelsOpened, server.Stats.ChannelsClosed,
		server.Stats.ChannelsBroken, server.Stats.KeepaliveProbes)
}
