// Package cluster assembles simulated deployments: a clos fabric, one NIC
// + TCP stack + X-RDMA context per node, optional clock skew, and helpers
// for establishing the full-mesh channel sets the production systems use
// (§III Issue 1: block-server×chunk-server full-mesh connectivity).
package cluster

import (
	"fmt"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/verbs"
	"xrdma/internal/xrdma"
)

// Options configures a cluster build.
type Options struct {
	Topology fabric.Topology
	// NICCfg is every node's NIC configuration (zero value = rnic.DefaultConfig()).
	NICCfg rnic.Config
	// Nodes limits how many hosts get a software stack (0 = all).
	Nodes int
	// Config mutates the per-node X-RDMA configuration.
	Config func(node int, cfg *xrdma.Config)
	// ClockSkew, when set, returns each node's wall-clock offset.
	ClockSkew func(node int) sim.Duration
	// MockPort enables the TCP fallback plane when >0.
	MockPort int
	// RecoverPort enables the channel health state machine (RDMA
	// re-establishment for degraded channels) when >0.
	RecoverPort int
	Seed        uint64
}

// Node is one machine: NIC, TCP stack, CM endpoint and X-RDMA context.
// The NIC, TCP stack and CM survive a middleware Restart; the context is
// replaced.
type Node struct {
	ID  fabric.NodeID
	NIC *rnic.NIC
	TCP *tcpnet.Stack
	CM  *verbs.CM
	Ctx *xrdma.Context
}

// Cluster owns the shared simulation state.
type Cluster struct {
	Eng   *sim.Engine
	Fab   *fabric.Fabric
	Net   *verbs.CMNetwork
	Nodes []*Node
	RNG   *sim.RNG

	opts Options // retained for Restart
}

// New builds the cluster.
func New(o Options) *Cluster {
	eng := sim.NewEngine()
	if o.NICCfg == (rnic.Config{}) {
		o.NICCfg = rnic.DefaultConfig()
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	fab := fabric.New(eng, fabric.DefaultConfig(), o.Seed)
	fabric.BuildClos(fab, o.Topology)
	n := o.Nodes
	if n == 0 || n > o.Topology.Hosts() {
		n = o.Topology.Hosts()
	}
	c := &Cluster{
		Eng: eng, Fab: fab, Net: verbs.NewCMNetwork(),
		RNG: sim.NewRNG(o.Seed), opts: o,
	}
	for i := 0; i < n; i++ {
		host := fab.Host(fabric.NodeID(i))
		nic := rnic.New(eng, host, o.NICCfg)
		vc := verbs.Open(nic)
		node := &Node{ID: host.ID, NIC: nic, CM: verbs.NewCM(vc, c.Net, host), TCP: tcpnet.New(eng, host)}
		cfg := xrdma.DefaultConfig()
		if o.Config != nil {
			o.Config(i, &cfg)
		}
		node.Ctx = c.newContext(i, node, vc, cfg, 0)
		c.Nodes = append(c.Nodes, node)
	}
	eng.SetAux(auxKey{}, c)
	return c
}

type auxKey struct{}

// Of returns the cluster built on eng, or nil for an engine New did not
// build (a world of raw NICs or TCP stacks). A viewer handed only the
// engine reaches the contexts through it.
func Of(eng *sim.Engine) *Cluster {
	c, _ := eng.Aux(auxKey{}).(*Cluster)
	return c
}

// Restart replaces one node's middleware instance in place — the rolling-
// upgrade move. The old context must already be Drained (its Shutdown is
// called here); mutate edits the carried-over configuration (typically
// bumping ProtoVerMax). The NIC, TCP stack and CM endpoint survive, so
// QPNs stay monotonic and peers can re-dial the recovery listener. The
// caller re-installs OnChannel/Listen on the returned context and then
// rehydrates the handoff blob.
func (c *Cluster) Restart(node int, mutate func(cfg *xrdma.Config)) *xrdma.Context {
	n := c.Nodes[node]
	cfg := n.Ctx.Config()
	if mutate != nil {
		mutate(&cfg)
	}
	n.Ctx.Shutdown()
	n.Ctx = c.newContext(node, n, verbs.Open(n.NIC), cfg, 0xdead)
	return n.Ctx
}

// newContext builds node i's middleware instance on vc over the node's CM
// and TCP stack. salt is 0 for the first instance and 0xdead for one that
// replaces it, so a restarted instance draws from a fresh seed.
func (c *Cluster) newContext(i int, n *Node, vc *verbs.Context, cfg xrdma.Config, salt uint64) *xrdma.Context {
	o := c.opts
	var skew sim.Duration
	if o.ClockSkew != nil {
		skew = o.ClockSkew(i)
	}
	return xrdma.NewContext(xrdma.Options{
		Verbs: vc, CM: n.CM, Host: c.Fab.Host(n.ID), Config: cfg, TCP: n.TCP,
		MockPort: o.MockPort, RecoverPort: o.RecoverPort, ClockSkew: skew,
		Seed: o.Seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ salt,
	})
}

// ListenAll makes every node accept channels on port; handler (optional)
// observes each accepted channel.
func (c *Cluster) ListenAll(port int, handler func(node *Node, ch *xrdma.Channel)) {
	for _, n := range c.Nodes {
		n := n
		n.Ctx.OnChannel(func(ch *xrdma.Channel) {
			if handler != nil {
				handler(n, ch)
			}
		})
		if err := n.Ctx.Listen(port); err != nil {
			panic(fmt.Sprintf("cluster: listen %d on node %d: %v", port, n.ID, err))
		}
	}
}

// Connect establishes one channel and delivers it via done.
func (c *Cluster) Connect(from, to int, port int, done func(*xrdma.Channel, error)) {
	c.Nodes[from].Ctx.Connect(c.Nodes[to].ID, port, done)
}

// ConnectPairs dials every (from→to) pair in pairs concurrently and calls
// done with the channels (indexed like pairs) once all are up. It returns
// that slice at once; a pair's entry is nil until its channel is up.
func (c *Cluster) ConnectPairs(pairs [][2]int, port int, done func([]*xrdma.Channel)) []*xrdma.Channel {
	remaining := len(pairs)
	if remaining == 0 {
		done(nil)
		return nil
	}
	chans := make([]*xrdma.Channel, len(pairs))
	for i, p := range pairs {
		c.Connect(p[0], p[1], port, func(ch *xrdma.Channel, err error) {
			if err != nil {
				panic(fmt.Sprintf("cluster: connect %v: %v", p, err))
			}
			chans[i] = ch
			remaining--
			if remaining == 0 {
				done(chans)
			}
		})
	}
	return chans
}

// Establish dials every pair as ConnectPairs does, runs the engine until
// the world is quiet and returns the channels indexed like pairs. A pair
// still down then means the world is broken: Establish panics naming each.
func (c *Cluster) Establish(pairs [][2]int, port int) []*xrdma.Channel {
	chans := c.ConnectPairs(pairs, port, func([]*xrdma.Channel) {})
	c.Eng.Run()
	var down [][2]int
	for i, ch := range chans {
		if ch == nil {
			down = append(down, pairs[i])
		}
	}
	if down != nil {
		panic(fmt.Sprintf("cluster: pairs %v never came up on port %d", down, port))
	}
	return chans
}

// FullMeshPairs returns every ordered (i→j, i<j) pair among the first n
// nodes.
func FullMeshPairs(n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// FanInPairs returns (i→target) for every i ≠ target among n nodes — the
// incast pattern of Fig. 10.
func FanInPairs(n, target int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		if i != target {
			out = append(out, [2]int{i, target})
		}
	}
	return out
}
