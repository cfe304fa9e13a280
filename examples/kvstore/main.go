// kvstore: a Storm-style transactional key-value dataplane (after Storm,
// arXiv:1902.02411) on X-RDMA's one-sided verbs. The server exposes its
// table as an MR window of seqlock-framed slots — [head ver][seq|value]
// [tail ver] — and grants it to clients over the ctrl plane. GETs are
// speculative: a single RDMA READ of the slot, validated client-side
// (head==tail and even means a consistent snapshot; the responder's CPU
// never woke up). A READ that catches a writer's critical section in
// flight fails validation and falls back to the GET RPC. PUTs always
// ride RPC: the server owns the write path and holds each slot's seqlock
// for the critical section, so readers can never observe a torn value.
package main

import (
	"encoding/binary"
	"fmt"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

const (
	opPut = 1
	opGet = 2

	nkeys    = 4
	valBytes = 56 // 8-byte embedded seq + 48 payload bytes
	slotLen  = 8 + valBytes + 8
	holdTime = 5 * sim.Microsecond // server-side write critical section
)

var keyNames = [nkeys]string{"alpha", "beta", "gamma", "delta"}

// pattern fills b with the deterministic payload for (key, seq), so a
// reader can verify a snapshot is bit-consistent with its version.
func pattern(k int, seq uint64, b []byte) {
	for i := range b {
		b[i] = byte(uint64(k)*31 + seq*7 + uint64(i)*13 + 5)
	}
}

// server owns the table: the exposed window is the one-sided view, vals
// the authoritative copy RPC GETs serve from, and each slot's seqlock is
// held for holdTime around every mutation.
type server struct {
	eng  *sim.Engine
	win  *xrdma.Window
	vals [nkeys][]byte
	msgs int
}

func (s *server) serve(m *xrdma.Msg) {
	s.msgs++
	k := int(m.Data[1])
	switch m.Data[0] {
	case opGet:
		m.Reply(s.vals[k], 0)
	case opPut:
		seq := binary.LittleEndian.Uint64(m.Data[2:])
		slot := s.win.Bytes()[k*slotLen : (k+1)*slotLen]
		binary.LittleEndian.PutUint64(slot, 2*seq-1) // head odd: write in flight
		s.eng.AfterBg(holdTime, func() {
			val := make([]byte, valBytes)
			binary.LittleEndian.PutUint64(val, seq)
			pattern(k, seq, val[8:])
			copy(slot[8:], val)
			binary.LittleEndian.PutUint64(slot[8+valBytes:], 2*seq) // tail
			binary.LittleEndian.PutUint64(slot, 2*seq)              // head even: stable
			s.vals[k] = val
			m.Reply([]byte("OK"), 0)
		})
	}
}

func main() {
	c := cluster.New(cluster.Options{Topology: fabric.SmallClos(), Nodes: 8})
	eng := c.Eng

	// Server on node 4 (the far ToR): every op crosses the leaf tier.
	srv := &server{eng: eng}
	c.Nodes[4].Ctx.ExposeWindow(nkeys*slotLen, func(w *xrdma.Window, err error) {
		if err != nil {
			panic(err)
		}
		srv.win = w
	})
	eng.Run()
	for k := 0; k < nkeys; k++ {
		val := make([]byte, valBytes)
		pattern(k, 0, val[8:])
		copy(srv.win.Bytes()[k*slotLen+8:], val)
		srv.vals[k] = val
	}
	c.Nodes[4].Ctx.OnChannel(func(ch *xrdma.Channel) {
		ch.OnMessage(srv.serve)
		ch.GrantWindow(srv.win)
	})
	if err := c.Nodes[4].Ctx.Listen(6379); err != nil {
		panic(err)
	}

	var cli *xrdma.Channel
	c.Connect(0, 4, 6379, func(ch *xrdma.Channel, err error) {
		if err != nil {
			panic(err)
		}
		cli = ch
	})
	eng.Run()
	rw, ok := cli.PeerWindow(srv.win.ID)
	if !ok {
		panic("window grant never arrived")
	}

	var spec, fallbacks int
	get := func(k int, done func(seq uint64, payload []byte)) {
		rpc := func() {
			cli.SendMsg([]byte{opGet, byte(k)}, 0, func(m *xrdma.Msg, err error) {
				if err != nil {
					panic(err)
				}
				done(binary.LittleEndian.Uint64(m.Data), m.Data[8:])
			})
		}
		cli.ReadRemote(rw, uint64(k*slotLen), slotLen, func(b []byte, err error) {
			if err != nil {
				panic(err)
			}
			head := binary.LittleEndian.Uint64(b)
			tail := binary.LittleEndian.Uint64(b[8+valBytes:])
			seq := binary.LittleEndian.Uint64(b[8:16])
			if head == tail && head%2 == 0 && seq*2 == head {
				spec++
				done(seq, append([]byte(nil), b[16:8+valBytes]...))
				return
			}
			// Caught a writer's critical section in flight: the RPC
			// dataplane is the fallback, exactly as Storm prescribes.
			fallbacks++
			rpc()
		})
	}
	put := func(k int, seq uint64, done func()) {
		req := make([]byte, 10)
		req[0], req[1] = opPut, byte(k)
		binary.LittleEndian.PutUint64(req[2:], seq)
		cli.SendMsg(req, 0, func(_ *xrdma.Msg, err error) {
			if err != nil {
				panic(err)
			}
			done()
		})
	}

	// Quiet table: every speculative GET validates on the first try.
	put(0, 1, func() {
		get(0, func(seq uint64, payload []byte) {
			ok := len(payload) == valBytes-8
			for i, b := range payload {
				if b != byte(0*31+seq*7+uint64(i)*13+5) {
					ok = false
				}
			}
			fmt.Printf("GET %s → seq=%d intact=%v (speculative one-sided READ, responder asleep)\n",
				keyNames[0], seq, ok)
		})
	})
	eng.Run()

	// Contended key: a PUT lands mid-burst, so the READs that sample the
	// slot during its holdTime critical section fail validation and take
	// the RPC fallback — never a torn read.
	burst := 40
	for i := 0; i < burst; i++ {
		eng.AfterBg(sim.Duration(i+1)*sim.Microsecond, func() {
			get(1, func(seq uint64, _ []byte) {})
		})
	}
	eng.AfterBg(10*sim.Microsecond, func() { put(1, 1, func() {}) })
	eng.RunFor(5 * sim.Millisecond)

	fmt.Printf("burst on %s: %d GETs validated speculatively, %d caught the writer and fell back to RPC\n",
		keyNames[1], spec-1, fallbacks)
	fmt.Printf("client one-sided counters: reads=%d rdbytes=%d raerrs=%d\n",
		cli.Counters.Reads, cli.Counters.ReadBytes, cli.Counters.RemoteAccessErrs)
	fmt.Printf("server handler invocations: %d (PUTs + fallback GETs only — speculative reads cost zero responder CPU)\n",
		srv.msgs)
	fmt.Printf("\n%s", xrdma.XRStat(c.Nodes[4].Ctx))
}
