package rnic

import (
	"bytes"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// What landing in place buys and what it must never do: a READ's response and
// a SEND's fragments go straight into registered memory (the completion's Data
// is that memory, not a copy), what the wire did not carry still reads as
// zeros, the responder's staging buffers recycle without one READ ever seeing
// another's bytes or a later state of the source, and a destination that goes
// away mid-message is counted, not crashed on.

// tap sits between the fabric and a NIC so a test can act right before and
// right after the NIC handles one inbound packet.
type tap struct {
	n             *NIC
	before, after func(h hdr)
}

func (t *tap) HandlePacket(p *fabric.Packet) {
	var h hdr
	if hp, ok := p.Payload.(*hdr); ok {
		h = *hp // the NIC recycles the header
	}
	if t.before != nil {
		t.before(h)
	}
	t.n.HandlePacket(p)
	if t.after != nil {
		t.after(h)
	}
}

func TestReadLandsInRegisteredLocal(t *testing.T) {
	r := newRig(t, DefaultConfig())
	src := r.b.Mem.Register(64<<10, RegNonContinuous)
	want := mkPattern(10000) // 3 segments at MTU 4096
	srcBuf := src.Slice(src.Base, src.Len)
	copy(srcBuf, want)
	dst := r.a.Mem.Register(64<<10, RegNonContinuous)
	const off = 4096
	dstBuf := dst.Slice(dst.Base, dst.Len)
	for i := range dstBuf {
		dstBuf[i] = 0xDB
	}

	r.qa.PostSend(&SendWR{ID: 1, Op: OpRead, Len: len(want), Local: dst.Base + off, RAddr: src.Base, RKey: src.RKey})
	r.qa.PostSend(&SendWR{ID: 2, Op: OpRead, Len: len(want), RAddr: src.Base, RKey: src.RKey})
	r.eng.Run()
	sc := r.qa.SendCQ.Poll(4)
	if len(sc) != 2 || sc[0].Status != StatusOK || sc[1].Status != StatusOK {
		t.Fatalf("read completions: %+v", sc)
	}
	if !bytes.Equal(sc[0].Data, want) || !bytes.Equal(sc[1].Data, want) {
		t.Fatal("read data wrong")
	}
	if &sc[0].Data[0] != &dstBuf[off] {
		t.Error("READ into a registered Local: the completion's Data is a copy, not the destination MR")
	}
	if !bytes.Equal(dstBuf[off:off+len(want)], want) || dstBuf[off-1] != 0xDB || dstBuf[off+len(want)] != 0xDB {
		t.Error("the destination range does not hold exactly the READ")
	}
	if cap(sc[0].Data) != len(want) {
		t.Errorf("Data's capacity %d runs past the range (%d): an append would write on into the MR", cap(sc[0].Data), len(want))
	}
	if p := &sc[1].Data[0]; p == &dstBuf[off] || p == &srcBuf[0] {
		t.Error("an address-less READ must deliver a private buffer")
	}
	if r.qb.RecvCQ.Len() != 0 || r.qb.SendCQ.Len() != 0 {
		t.Error("a READ touched the responder's CQs")
	}
	if r.a.Counters.LocalProtErrs != 0 {
		t.Errorf("LocalProtErrs = %d", r.a.Counters.LocalProtErrs)
	}
}

func TestRecvLandsInPostedBuffer(t *testing.T) {
	r := newRig(t, DefaultConfig())
	mr := r.b.Mem.Register(64<<10, RegNonContinuous)
	buf := mr.Slice(mr.Base, mr.Len)
	for i := range buf {
		buf[i] = 0xDB
	}
	const bufLen = 16 << 10
	if err := r.qb.PostRecv(RecvWR{ID: 1, Addr: mr.Base, Len: bufLen}); err != nil {
		t.Fatal(err)
	}
	if err := r.qb.PostRecv(RecvWR{ID: 2, Len: bufLen}); err != nil { // names no memory
		t.Fatal(err)
	}
	if err := r.qb.PostRecv(RecvWR{ID: 3, Addr: mr.Base + bufLen, Len: bufLen}); err != nil {
		t.Fatal(err)
	}
	if err := r.qb.PostRecv(RecvWR{ID: 4, Addr: mr.Base + 2*bufLen, Len: bufLen}); err != nil {
		t.Fatal(err)
	}
	full := mkPattern(9000)
	head := mkPattern(40) // a real header in front of a size-only payload, 3 segments
	r.qa.PostSend(&SendWR{ID: 1, Op: OpSend, Len: len(full), Data: full})
	r.qa.PostSend(&SendWR{ID: 2, Op: OpSend, Len: len(full), Data: full})
	r.qa.PostSend(&SendWR{ID: 3, Op: OpSend, Len: 10000, Data: head})
	r.qa.PostSend(&SendWR{ID: 4, Op: OpSend, Len: 64}) // nothing carried
	r.eng.Run()
	rc := r.qb.RecvCQ.Poll(8)
	if len(rc) != 4 {
		t.Fatalf("recv CQEs = %d, want 4", len(rc))
	}
	for _, c := range rc {
		if c.Status != StatusOK {
			t.Fatalf("recv CQE %+v", c)
		}
	}
	if !bytes.Equal(rc[0].Data, full) || &rc[0].Data[0] != &buf[0] {
		t.Error("SEND into a registered posted buffer: Data must be that buffer, byte-exact")
	}
	if buf[len(full)] != 0xDB {
		t.Error("the receive wrote past the message's end")
	}
	if !bytes.Equal(rc[1].Data, full) {
		t.Error("address-less receive: data wrong")
	}
	if p := &rc[1].Data[0]; p == &buf[0] || p == &full[0] {
		t.Error("an address-less receive must deliver a private buffer")
	}
	// A size-only tail is not there to read: Data ends with the carried
	// header, and the posted buffer past it is left as it was.
	got := rc[2].Data
	if len(got) != len(head) || &got[0] != &buf[bufLen] || !bytes.Equal(got, head) || rc[2].Len != 10000 {
		t.Fatalf("header + size-only tail: Data len %d (Len %d), header intact %v", len(got), rc[2].Len, bytes.Equal(got, head))
	}
	for i, b := range buf[bufLen+len(head) : 2*bufLen] {
		if b != 0xDB {
			t.Fatalf("byte %d past the carried header reads %#x: a byte the SEND does not carry was written", len(head)+i, b)
		}
	}
	if rc[3].Data != nil || buf[2*bufLen] != 0xDB {
		t.Error("a size-only SEND must deliver nil Data and leave the posted buffer alone")
	}
	if r.b.Counters.LocalProtErrs != 0 {
		t.Errorf("LocalProtErrs = %d", r.b.Counters.LocalProtErrs)
	}
}

// TestStagingRecycleSafety is the Storm rule as a test, under recycling: a READ
// observes its source as it was when the responder accepted the request —
// never another READ's snapshot, never a later state of the source — whatever
// is dropped, delayed, re-requested or re-serviced meanwhile. The source slot
// holds its pattern only while the responder handles the request; right after,
// it is overwritten, so reading at emission or arrival time fails every READ.
func TestStagingRecycleSafety(t *testing.T) {
	const (
		total   = 2400
		depth   = 16
		slotLen = 64 << 10
	)
	sizes := []int{64, 100, 1000, 4096, 4097, 10000, 16 << 10, 40000, 64 << 10}
	cfg := DefaultConfig()
	cfg.RetransTimeout = 300 * sim.Microsecond
	cfg.RetryLimit = 1000 // the schedule below drops for the whole run; progress resets the count
	r := newRig(t, cfg)
	src := r.b.Mem.Register(depth*slotLen, RegNonContinuous)
	dst := r.a.Mem.Register(depth*slotLen, RegNonContinuous)
	pattern := func(i uint64, n int) []byte {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(i*131) + byte(j)*29 + byte(j>>8)
		}
		return b
	}
	slotOf := func(raddr uint64) []byte {
		off := raddr - src.Base
		return src.Slice(src.Base, src.Len)[off : off+slotLen]
	}
	r.fab.Host(5).Attach(&tap{n: r.b,
		before: func(h hdr) {
			if h.Op == OpRead {
				copy(slotOf(h.RAddr), pattern(h.MsgID, h.MsgLen))
			}
		},
		after: func(h hdr) {
			if h.Op == OpRead {
				s := slotOf(h.RAddr)[:h.MsgLen]
				for j := range s {
					s[j] = 0xEE
				}
			}
		}})
	var respSegs, reqs, dropped, delayed int
	r.b.FaultHook = func(p *fabric.Packet) (bool, sim.Duration) {
		if h, ok := p.Payload.(*hdr); ok && h.Op == opReadResp {
			switch respSegs++; {
			case respSegs%41 == 0:
				dropped++
				return true, 0
			case respSegs%13 == 0:
				delayed++
				return false, 5 * sim.Microsecond // overtaken: a hole, then a stale duplicate
			}
		}
		return false, 0
	}
	r.a.FaultHook = func(p *fabric.Packet) (bool, sim.Duration) {
		if h, ok := p.Payload.(*hdr); ok && h.Op == OpRead {
			switch reqs++; {
			case reqs%29 == 0:
				dropped++
				return true, 0
			case reqs%7 == 0:
				delayed++
				return false, 3 * sim.Microsecond
			}
		}
		return false, 0
	}

	wrs := make([]SendWR, total)
	next, done := 0, 0
	post := func(slot int) {
		i := next
		next++
		wr := &wrs[i]
		*wr = SendWR{ID: uint64(i), Op: OpRead, Len: sizes[i%len(sizes)],
			RAddr: src.Base + uint64(slot*slotLen), RKey: src.RKey}
		if i%2 == 0 {
			wr.Local = dst.Base + uint64(slot*slotLen)
		}
		if err := r.qa.PostSend(wr); err != nil {
			t.Fatalf("PostSend %d: %v", i, err)
		}
	}
	r.qa.SendCQ.OnCompletion(func() {
		for _, c := range r.qa.SendCQ.Poll(64) {
			wr := &wrs[c.WRID]
			if c.Status != StatusOK {
				t.Fatalf("READ %d: %v", c.WRID, c.Status)
			}
			if !bytes.Equal(c.Data, pattern(c.WRID, wr.Len)) {
				t.Fatalf("READ %d (%d bytes): not the source as it was when the request was accepted", c.WRID, wr.Len)
			}
			if done++; next < total {
				post(int((wr.RAddr - src.Base) / slotLen))
			}
		}
	})
	for s := 0; s < depth; s++ {
		post(s)
	}
	r.eng.Run()

	if done != total {
		t.Fatalf("%d of %d READs completed", done, total)
	}
	if dropped < 50 || delayed < 100 || r.a.Counters.Retransmits == 0 {
		t.Fatalf("schedule too gentle: %d dropped, %d delayed, %d retransmits", dropped, delayed, r.a.Counters.Retransmits)
	}
	if len(r.qa.pendingReads) != 0 || len(r.qa.unacked) != 0 {
		t.Errorf("leaked read state: pendingReads=%d unacked=%d", len(r.qa.pendingReads), len(r.qa.unacked))
	}
	if pl := r.b.pool; pl.staged != 0 || pl.stageFree > 1 {
		t.Errorf("staging pool at rest: %d buffers out, %d kept (want 0 out, at most 1 kept)", pl.staged, pl.stageFree)
	}
}

// TestDroppedHeadersComeHome: a frame the fabric discards hands its header back
// through Fabric.OnDrop, so a browned-out world run to quiescence has every
// header it ever allocated on the free list, once each, and no staging buffer
// out — before the hook, each lost response segment stranded its snapshot.
func TestDroppedHeadersComeHome(t *testing.T) {
	const total, depth, size = 400, 8, 16 << 10
	cfg := DefaultConfig()
	cfg.RetransTimeout = 300 * sim.Microsecond
	cfg.RetryLimit = 1000
	r := newRig(t, cfg)
	if !r.fab.SetHostLinkImpairment(5, 0.03, 0, 0) {
		t.Fatal("no host 5 to brown out")
	}
	src := r.b.Mem.Register(size, RegNonContinuous)
	seen := make(map[*hdr]bool) // every header passes a FaultHook on its way to the wire
	see := func(p *fabric.Packet) (bool, sim.Duration) {
		if h, ok := p.Payload.(*hdr); ok {
			seen[h] = true
		}
		return false, 0
	}
	r.a.FaultHook, r.b.FaultHook = see, see

	wrs := make([]SendWR, total)
	next, done := 0, 0
	post := func() {
		wrs[next] = SendWR{ID: uint64(next), Op: OpRead, Len: size, RAddr: src.Base, RKey: src.RKey}
		if err := r.qa.PostSend(&wrs[next]); err != nil {
			t.Fatalf("PostSend %d: %v", next, err)
		}
		next++
	}
	r.qa.SendCQ.OnCompletion(func() {
		for _, c := range r.qa.SendCQ.Poll(64) {
			if c.Status != StatusOK {
				t.Fatalf("READ %d: %v", c.WRID, c.Status)
			}
			if done++; next < total {
				post()
			}
		}
	})
	for i := 0; i < depth; i++ {
		post()
	}
	r.eng.Run()

	if done != total || r.fab.Stats.Drops < 20 {
		t.Fatalf("%d of %d READs completed over %d drops: not the brownout this test is about", done, total, r.fab.Stats.Drops)
	}
	pl := r.a.pool
	if pl.staged != 0 || pl.stageFree > 1 {
		t.Errorf("staging pool at rest: %d buffers out, %d kept (want 0 out, at most 1 kept)", pl.staged, pl.stageFree)
	}
	home := make(map[*hdr]bool, len(pl.hdrs))
	for _, h := range pl.hdrs {
		if home[h] {
			t.Fatalf("header %p is on the free list twice", h)
		}
		home[h] = true
	}
	for h := range seen {
		if !home[h] {
			t.Errorf("a header that went to the wire never came home (%d allocated, %d on the free list)", len(seen), len(pl.hdrs))
			break
		}
	}
}

// TestReadDestinationDeregisteredMidMessage: the region goes away between the
// first and the last response segment. The remaining segments land in its
// orphaned storage; the loss is counted once, at completion, as before.
func TestReadDestinationDeregisteredMidMessage(t *testing.T) {
	r := newRig(t, DefaultConfig())
	src := r.b.Mem.Register(64<<10, RegNonContinuous)
	want := mkPattern(10000)
	copy(src.Slice(src.Base, src.Len), want)
	dst := r.a.Mem.Register(64<<10, RegNonContinuous)
	dereg := false
	r.fab.Host(0).Attach(&tap{n: r.a, after: func(h hdr) {
		if h.Op == opReadResp && h.First && !dereg {
			dereg = true
			r.a.Mem.Deregister(dst)
		}
	}})
	r.qa.PostSend(&SendWR{ID: 9, Op: OpRead, Len: len(want), Local: dst.Base, RAddr: src.Base, RKey: src.RKey})
	r.eng.Run()
	if !dereg {
		t.Fatal("the tap never saw the first response segment")
	}
	sc := r.qa.SendCQ.Poll(2)
	if len(sc) != 1 || sc[0].Status != StatusOK || !bytes.Equal(sc[0].Data, want) {
		t.Fatalf("read completion: %+v", sc)
	}
	if got := r.a.Counters.LocalProtErrs; got != 1 {
		t.Errorf("LocalProtErrs = %d, want 1", got)
	}
}

// TestSizeOnlyRead: a READ with SizeOnly set moves lengths alone. On the wire
// and in time it is the data-carrying READ; it takes no staging buffer, lands
// nothing and completes with nil Data. The checks that need no bytes stay: a
// bad rkey still NAKs and breaks the QP, and a destination that went away
// before the last segment is still counted.
func TestSizeOnlyRead(t *testing.T) {
	const size = 10000 // 3 segments at MTU 4096
	// read posts one READ of size bytes out of a pattern-filled 64 KiB source
	// into a 0xDB-filled destination; mid, if set, runs after the first
	// response segment is handled.
	read := func(t *testing.T, sizeOnly bool, rkeyOff uint32, mid func(r *rig, dst *MR)) (*rig, *MR, []CQE) {
		r := newRig(t, DefaultConfig())
		src := r.b.Mem.Register(64<<10, RegNonContinuous)
		copy(src.Slice(src.Base, src.Len), mkPattern(size))
		dst := r.a.Mem.Register(64<<10, RegNonContinuous)
		dstBuf := dst.Slice(dst.Base, dst.Len)
		for i := range dstBuf {
			dstBuf[i] = 0xDB
		}
		var reqs, segs int
		r.fab.Host(5).Attach(&tap{n: r.b, before: func(h hdr) {
			if h.Op == OpRead {
				if reqs++; h.SizeOnly != sizeOnly {
					t.Errorf("request header SizeOnly = %v, want %v", h.SizeOnly, sizeOnly)
				}
			}
		}})
		r.fab.Host(0).Attach(&tap{n: r.a, after: func(h hdr) {
			if h.Op != opReadResp {
				return
			}
			if segs++; sizeOnly && (h.Data != nil || r.a.pool.staged != 0) {
				t.Errorf("segment %d: %d payload bytes, %d staging buffers out (want none)", segs, len(h.Data), r.a.pool.staged)
			}
			if h.First && mid != nil {
				mid(r, dst)
			}
		}})
		r.qa.PostSend(&SendWR{ID: 9, Op: OpRead, Len: size, Local: dst.Base, RAddr: src.Base, RKey: src.RKey + rkeyOff, SizeOnly: sizeOnly})
		r.eng.Run()
		if reqs == 0 {
			t.Fatal("no READ request reached the responder")
		}
		return r, dst, r.qa.SendCQ.Poll(2)
	}

	t.Run("lengths-only", func(t *testing.T) {
		rd, _, dc := read(t, false, 0, nil)
		r, dst, sc := read(t, true, 0, nil)
		if len(dc) != 1 || dc[0].Status != StatusOK || dc[0].Data == nil {
			t.Fatalf("data-carrying completion: %+v", dc)
		}
		if len(sc) != 1 || sc[0].Status != StatusOK || sc[0].Len != size || sc[0].Data != nil {
			t.Fatalf("size-only completion: %+v (want OK, Len %d, nil Data)", sc, size)
		}
		if r.eng.Now() != rd.eng.Now() || r.eng.Fired() != rd.eng.Fired() {
			t.Errorf("size-only READ ends at %v after %d events, the data-carrying one at %v after %d",
				r.eng.Now(), r.eng.Fired(), rd.eng.Now(), rd.eng.Fired())
		}
		if r.a.Counters != rd.a.Counters || r.b.Counters != rd.b.Counters || r.qa.Counters != rd.qa.Counters {
			t.Errorf("counters differ:\nsize-only %+v %+v\ndata      %+v %+v", r.a.Counters, r.b.Counters, rd.a.Counters, rd.b.Counters)
		}
		for i, b := range dst.Slice(dst.Base, dst.Len) {
			if b != 0xDB {
				t.Fatalf("dst[%d] = %#x: a size-only READ landed bytes", i, b)
			}
		}
		if pl := r.a.pool; pl.staged != 0 || pl.stageFree != 0 {
			t.Errorf("staging pool: %d out, %d kept (want 0 and 0: nothing was ever staged)", pl.staged, pl.stageFree)
		}
	})

	t.Run("bad-rkey", func(t *testing.T) {
		r, _, sc := read(t, true, 1, nil)
		if len(sc) != 1 || sc[0].Status != StatusRemoteAccessErr {
			t.Fatalf("completion: %+v (want a remote access error)", sc)
		}
		if r.qa.State != QPError || r.b.Counters.AccessErrors != 1 || r.qb.Counters.RemoteAccessErrs != 1 {
			t.Errorf("QP %v, responder AccessErrors %d, RemoteAccessErrs %d (want ERROR, 1, 1)",
				r.qa.State, r.b.Counters.AccessErrors, r.qb.Counters.RemoteAccessErrs)
		}
	})

	t.Run("deregistered-mid", func(t *testing.T) {
		r, _, sc := read(t, true, 0, func(r *rig, dst *MR) { r.a.Mem.Deregister(dst) })
		if len(sc) != 1 || sc[0].Status != StatusOK || sc[0].Data != nil {
			t.Fatalf("completion: %+v", sc)
		}
		if got := r.a.Counters.LocalProtErrs; got != 1 {
			t.Errorf("LocalProtErrs = %d, want 1", got)
		}
	})
}
