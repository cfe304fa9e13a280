package xrdma

import (
	"bytes"
	"errors"
	"testing"

	"xrdma/internal/sim"
)

// A size-only message (nil data) that goes by rendezvous is announced with
// flagSizeOnly, and its pull moves lengths, not bytes: it is delivered with
// nil Data and its Len, as an inline size-only message is. A message with
// data, and every one-sided READ, still moves its bytes.

// sentFrames runs send, then the world to quiescence, and returns the header
// of every windowed frame each channel transmitted meanwhile, decoded from the
// bytes its window posted. It looks every simulated microsecond for the first
// 2 ms: a frame stays in the window for a round trip at least, so none leaves
// it unseen.
func sentFrames(t *testing.T, w *testWorld, send func(), chs ...*Channel) [][]wireHdr {
	t.Helper()
	defer w.eng.Run()
	out := make([][]wireHdr, len(chs))
	seen := make([]uint64, len(chs))
	for i, ch := range chs {
		seen[i] = ch.win.seq
	}
	send()
	for range 2000 {
		for i, ch := range chs {
			for ; seen[i] < ch.win.seq; seen[i]++ {
				rec := ch.win.at(seen[i] + 1)
				if rec == nil || rec.wr.Data == nil {
					t.Fatalf("channel %d: seq %d left the window unseen", i, seen[i]+1)
				}
				h, _, err := decodeHdr(rec.wr.Data)
				if err != nil {
					t.Fatalf("channel %d: seq %d: %v", i, seen[i]+1, err)
				}
				out[i] = append(out[i], h)
			}
		}
		w.eng.RunFor(sim.Microsecond)
	}
	return out
}

// fillRegions writes b over every byte of c's memory-cache regions, so a
// buffer that later holds b's was never written by anyone else.
func fillRegions(c *Context, b byte) {
	for _, r := range c.Mem.regions {
		buf := r.mr.Slice(r.mr.Base, r.mr.Len)
		for i := range buf {
			buf[i] = b
		}
	}
}

func TestSizeOnlyRendezvous(t *testing.T) {
	const reqSize, respSize = 128 << 10, 96 << 10
	w := newWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5020)

	var req, resp *Msg
	var reqData, respData []byte
	srv.OnMessage(func(m *Msg) {
		req, reqData = m, m.Data
		if err := m.Reply(nil, respSize); err != nil {
			t.Errorf("Reply: %v", err)
		}
	})
	frames := sentFrames(t, w, func() {
		if err := cli.SendMsg(nil, reqSize, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("response: %v", err)
			}
			resp, respData = m, m.Data
		}); err != nil {
			t.Fatal(err)
		}
	}, cli, srv)

	// Delivered as an inline size-only message is: no Data, the size in Len.
	if req == nil || req.Len != reqSize || reqData != nil {
		t.Fatalf("request: %+v, %d bytes of Data (want Len %d and nil Data)", req, len(reqData), reqSize)
	}
	if resp == nil || resp.Len != respSize || respData != nil {
		t.Fatalf("response: %+v, %d bytes of Data (want Len %d and nil Data)", resp, len(respData), respSize)
	}
	if srv.Counters.LargeRecv != 1 || cli.Counters.LargeRecv != 1 {
		t.Fatalf("LargeRecv: server %d, client %d (want one pull each way)", srv.Counters.LargeRecv, cli.Counters.LargeRecv)
	}
	for i, want := range []msgKind{kindLargeReq, kindLargeResp} {
		if len(frames[i]) != 1 || frames[i][0].Kind != want || frames[i][0].Flags&flagSizeOnly == 0 {
			t.Errorf("side %d sent %+v, want one %v with flagSizeOnly", i, frames[i], want)
		}
	}

	// The same context, its records, WRs and NIC headers recycled: a message
	// with data and a one-sided READ still move their bytes. Each end's
	// memory is wiped first, and the answer differs from the question, so no
	// block that held the right bytes before can pass for a pull.
	payload, answer := make([]byte, reqSize), make([]byte, reqSize)
	for i := range payload {
		payload[i], answer[i] = byte(i*31+7), byte(i*17+3)
	}
	fillRegions(w.ctxs[0], 0xC1)
	fillRegions(w.ctxs[1], 0x5E)
	var asked, answered []byte
	srv.OnMessage(func(m *Msg) {
		asked = m.Retain()
		m.Reply(answer, 0)
	})
	frames = sentFrames(t, w, func() {
		if err := cli.SendMsg(payload, 0, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("response: %v", err)
			}
			answered = m.Retain()
		}); err != nil {
			t.Fatal(err)
		}
	}, cli, srv)
	if !bytes.Equal(asked, payload) || !bytes.Equal(answered, answer) {
		t.Fatal("a rendezvous with data after a size-only one is not byte-exact")
	}
	for i, want := range []msgKind{kindLargeReq, kindLargeResp} {
		if len(frames[i]) != 1 || frames[i][0].Kind != want || frames[i][0].Flags&flagSizeOnly != 0 {
			t.Errorf("side %d sent %+v, want one %v without flagSizeOnly", i, frames[i], want)
		}
	}

	win, rw := exposeGranted(t, w, cli, srv, 64<<10)
	copy(win.Bytes(), payload)
	fillRegions(w.ctxs[0], 0xC1)
	var got []byte
	var rerr error
	cli.ReadRemote(rw, 4096, 32<<10, func(b []byte, err error) { got, rerr = bytes.Clone(b), err })
	w.eng.Run()
	if rerr != nil || !bytes.Equal(got, payload[4096:4096+32<<10]) {
		t.Fatalf("ReadRemote after size-only pulls: %d bytes, %v (want the window's bytes)", len(got), rerr)
	}
	w.checkAtRest(t, 1, 1)
}

// TestSizeOnlyReadsNilOnEveryTransport: a size-only message reads the same
// whatever carries it — nil Data and its Len — inline over RDMA, by
// rendezvous, and inline over the Mock; both ways, since each request is
// answered size-only with its own size.
func TestSizeOnlyReadsNilOnEveryTransport(t *testing.T) {
	w := newWorld(t, 2, func(_ int, cfg *Config) { cfg.MockEnabled = true })
	cli, srv := w.connect(t, 0, 1, 5022)
	srv.OnMessage(func(m *Msg) {
		if m.Data != nil {
			t.Errorf("request of Len %d arrived with %d bytes of Data, want nil", m.Len, len(m.Data))
		}
		if err := m.Reply(nil, m.Len); err != nil {
			t.Errorf("Reply: %v", err)
		}
	})
	roundTrip := func(how string, size int) {
		var resp *Msg
		if err := cli.SendMsg(nil, size, func(m *Msg, err error) {
			if err != nil {
				t.Fatalf("%s: %v", how, err)
			}
			resp = m
			if m.Len != size || m.Data != nil {
				t.Errorf("%s: response of Len %d arrived with %d bytes of Data, want Len %d and nil", how, m.Len, len(m.Data), size)
			}
		}); err != nil {
			t.Fatal(err)
		}
		w.eng.Run()
		if resp == nil {
			t.Fatalf("%s: no response", how)
		}
	}
	roundTrip("inline over RDMA", 32)
	roundTrip("by rendezvous", 128<<10)
	if err := cli.ForceMock(); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if !cli.Mocked() {
		t.Fatal("the channel did not switch to the Mock")
	}
	roundTrip("inline over the Mock", 32)
	if cli.Counters.LargeSent != 1 || srv.Counters.LargeSent != 1 {
		t.Fatalf("LargeSent: client %d, server %d (want the one rendezvous each way)", cli.Counters.LargeSent, srv.Counters.LargeSent)
	}
}

// TestDrainKeepsSizeOnly: a size-only rendezvous in flight across Drain — its
// responder's thread is busy past the deadline, so the deadline forces the
// drain — is frozen without bytes and comes back size-only, delivered once
// with its Len.
func TestDrainKeepsSizeOnly(t *testing.T) {
	const size = 192 << 10 // staged in the region the connect registered
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5021)
	var lens []int
	srv.OnMessage(func(m *Msg) {
		lens = append(lens, m.Len)
		m.Reply(nil, 0)
	})
	var werr error
	if err := cli.SendMsg(nil, size, func(_ *Msg, err error) { werr = err }); err != nil {
		t.Fatal(err)
	}
	w.ctxs[1].InjectWork(2 * drainDeadline)
	var msgID uint64
	var newCh *Channel
	var restored *msgRec
	w.eng.AfterBg(10*sim.Microsecond, func() {
		rec := cli.win.at(1)
		if rec == nil || !rec.staged.Valid() || cli.Counters.LargeSent != 1 {
			t.Fatal("the message was not announced before the drain: the test is vacuous")
		}
		msgID = rec.msgID
		err := w.ctxs[0].Drain(func(blob []byte) {
			h, err := decodeHandoff(blob)
			if err != nil || len(h.Chans) != 1 {
				t.Fatalf("handoff: %v", err)
			}
			found := false
			for _, m := range h.Chans[0].Tail {
				if m.MsgID == msgID {
					found = true
					if m.Size != size || len(m.Data) != 0 {
						t.Errorf("frozen as %d bytes of %d payload, want size %d and none", len(m.Data), m.Size, size)
					}
				}
			}
			if !found {
				t.Fatal("the message is not in the handoff tail: the test is vacuous")
			}
			newCli := restartCtx(w, 0, nil)
			newCli.OnChannel(func(ch *Channel) { newCh = ch })
			if err := newCli.Rehydrate(blob); err != nil {
				t.Fatalf("rehydrate: %v", err)
			}
			for rec := newCh.sendQ.Head(); rec != nil; rec = rec.next {
				if rec.msgID == msgID {
					restored = rec
				}
			}
			if restored == nil {
				t.Fatal("the message is not queued on the rehydrated channel")
			}
			if restored.hasData || restored.size != size {
				t.Errorf("restored with data %v, size %d; want size-only with size %d", restored.hasData, restored.size, size)
			}
		})
		if err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	w.eng.RunFor(300 * sim.Millisecond)

	if len(lens) != 1 || lens[0] != size {
		t.Fatalf("delivered lengths %v, want one of %d", lens, size)
	}
	if !errors.Is(werr, ErrDraining) {
		t.Fatalf("waiter heard %v, want ErrDraining: the drain was not forced", werr)
	}
	if w.ctxs[1].Stats.Degraded == 0 {
		t.Fatal("server never saw the restart: the transfer finished before the drain")
	}
	newCh.Close()
	w.eng.RunFor(w.ctxs[1].recoverGrace() + 20*sim.Millisecond)
}
