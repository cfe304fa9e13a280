package rnic

import (
	"testing"

	"xrdma/internal/telemetry"
)

// The per-packet transmit pipeline is the path the blame plane must not
// tax when tracing is off: every hop carries a nil-check on the trace
// bit and nothing else. BenchmarkUntracedSendPath is gated in CI at
// exactly 0 allocs/op; the traced variant below documents the armed cost
// (one PktBlame per message direction) and is not gated.

// BenchmarkUntracedSendPath drives the full requester pipeline — SQ pop,
// packet build, fabric traversal cross-ToR, hardware ack, send CQE —
// with the blame plane compiled in but no trace bit set.
func BenchmarkUntracedSendPath(b *testing.B) {
	r := newRig(b, DefaultConfig())
	var wr SendWR
	var cqes []CQE
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Zero-byte write: no rkey, no recv WQE, no receiver-side data
		// buffer — the packet path itself is what is being measured.
		wr = SendWR{ID: uint64(i), Op: OpWrite, Len: 0}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qa.SendCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK {
			b.Fatalf("iteration %d: CQEs %+v", i, cqes)
		}
	}
}

// BenchmarkPostedRecvPath is the two-sided counterpart: a size-only 64 B
// SEND into a posted receive, so the responder's WQE claim, assembly and
// receive CQE run as well. Gated in CI at exactly 0 allocs/op — the
// receive completion goes into the CQ with its visible instant, no closure.
func BenchmarkPostedRecvPath(b *testing.B) {
	r := newRig(b, DefaultConfig())
	var wr SendWR
	var cqes []CQE
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.qb.PostRecv(RecvWR{ID: uint64(i), Len: 4096}); err != nil {
			b.Fatal(err)
		}
		wr = SendWR{ID: uint64(i), Op: OpSend, Len: 64}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qb.RecvCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK || cqes[0].WRID != uint64(i) {
			b.Fatalf("iteration %d: recv CQEs %+v", i, cqes)
		}
		cqes = r.qa.SendCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK {
			b.Fatalf("iteration %d: send CQEs %+v", i, cqes)
		}
	}
}

// BenchmarkTracedSendPath is the same pipeline with the trace bit armed:
// the WR carries a PktBlame accumulator that every hop stamps. The delta
// against BenchmarkUntracedSendPath is the whole per-message cost of
// the blame plane at this layer.
func BenchmarkTracedSendPath(b *testing.B) {
	r := newRig(b, DefaultConfig())
	var wr SendWR
	var cqes []CQE
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wr = SendWR{ID: uint64(i), Op: OpWrite, Len: 0, Blame: &telemetry.PktBlame{}}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qa.SendCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK {
			b.Fatalf("iteration %d: CQEs %+v", i, cqes)
		}
	}
}

// BenchmarkOneSidedReadPath drives the full one-sided requester+responder
// pipeline — SQ pop, request packet, responder PSN sequencing + deferred
// response job, response stream, PSN-cursor acceptance, send CQE — with a
// zero-byte READ so the payload copy is excluded and the protocol path
// itself is measured. Gated in CI at exactly 0 allocs/op, matching the
// two-sided send path: read state, response jobs and headers all come
// from the engine pools.
func BenchmarkOneSidedReadPath(b *testing.B) {
	r := newRig(b, DefaultConfig())
	var wr SendWR
	var cqes []CQE
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wr = SendWR{ID: uint64(i), Op: OpRead, Len: 0}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qa.SendCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK {
			b.Fatalf("iteration %d: CQEs %+v", i, cqes)
		}
	}
}

// BenchmarkReadInPlace64K is the bulk half of the one-sided path: a 64 KiB
// READ (16 segments) out of one registered region into another — what every
// rendezvous fragment is. The responder snapshots the source into a recycled
// staging buffer and the requester lands each segment in the destination MR,
// so a warmed READ allocates nothing however large. Gated in CI at exactly
// 0 allocs/op.
func BenchmarkReadInPlace64K(b *testing.B) {
	const size = 64 << 10
	r := newRig(b, DefaultConfig())
	src := r.b.Mem.Register(size, RegNonContinuous)
	copy(src.Slice(src.Base, src.Len), mkPattern(size))
	dst := r.a.Mem.Register(size, RegNonContinuous)
	dstBuf := dst.Slice(dst.Base, dst.Len)
	var wr SendWR
	var cqes []CQE
	read := func(i int) {
		wr = SendWR{ID: uint64(i), Op: OpRead, Len: size, Local: dst.Base, RAddr: src.Base, RKey: src.RKey}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qa.SendCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK || &cqes[0].Data[0] != &dstBuf[0] {
			b.Fatalf("iteration %d: CQEs %+v", i, cqes)
		}
	}
	read(0) // warm: the staging buffer, headers and packets reach their working set
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
}

// BenchmarkReadSizeOnly64K is BenchmarkReadInPlace64K without bytes: the
// rendezvous pull of a size-only message. The responder checks the rkey and
// stages nothing, the segments carry lengths and the completion no Data.
// Gated in CI at exactly 0 allocs/op.
func BenchmarkReadSizeOnly64K(b *testing.B) {
	const size = 64 << 10
	r := newRig(b, DefaultConfig())
	src := r.b.Mem.Register(size, RegNonContinuous)
	dst := r.a.Mem.Register(size, RegNonContinuous)
	var wr SendWR
	var cqes []CQE
	read := func(i int) {
		wr = SendWR{ID: uint64(i), Op: OpRead, Len: size, Local: dst.Base, RAddr: src.Base, RKey: src.RKey, SizeOnly: true}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qa.SendCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK || cqes[0].Data != nil || r.a.pool.stageFree != 0 {
			b.Fatalf("iteration %d: CQEs %+v", i, cqes)
		}
	}
	read(0) // warm: headers and packets reach their working set
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
}

// BenchmarkRecvInPlace is BenchmarkPostedRecvPath with bytes: a 4 KiB SEND that
// carries its payload into a posted buffer in registered memory — the shape of
// every xrdma receive. The fragments land in the buffer itself and the CQE
// aliases it. Gated in CI at exactly 0 allocs/op.
func BenchmarkRecvInPlace(b *testing.B) {
	const size = 4096
	r := newRig(b, DefaultConfig())
	mr := r.b.Mem.Register(size, RegNonContinuous)
	buf := mr.Slice(mr.Base, mr.Len)
	payload := mkPattern(size)
	var wr SendWR
	var cqes []CQE
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.qb.PostRecv(RecvWR{ID: uint64(i), Addr: mr.Base, Len: size}); err != nil {
			b.Fatal(err)
		}
		wr = SendWR{ID: uint64(i), Op: OpSend, Len: size, Data: payload}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qb.RecvCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK || &cqes[0].Data[0] != &buf[0] {
			b.Fatalf("iteration %d: recv CQEs %+v", i, cqes)
		}
		cqes = r.qa.SendCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK {
			b.Fatalf("iteration %d: send CQEs %+v", i, cqes)
		}
	}
}

// BenchmarkRetransmitUnacked is one go-back-N round toward a peer that stopped
// answering: 32 WRs stay unacked (the peer NIC is down; a packet the fabric
// itself drops would leak its pooled header, ROADMAP 1(c)5), and every
// iteration re-enqueues them all and lets the engine put them back on the
// wire — what a brownout world pays per RTO. Gated in CI at 0 allocs/op: the
// queued set is an epoch stamp on the WRs, and the jobs come from the pool.
func BenchmarkRetransmitUnacked(b *testing.B) {
	cfg := DefaultConfig()
	cfg.RetryLimit = 1 << 30 // RTOs firing inside the loop must never break the QP
	r := newRig(b, cfg)
	r.b.Crash()
	wrs := make([]SendWR, 32)
	for i := range wrs {
		wrs[i] = SendWR{ID: uint64(i), Op: OpWrite, Len: 0}
		if err := r.qa.PostSend(&wrs[i]); err != nil {
			b.Fatal(err)
		}
	}
	r.eng.RunFor(cfg.RetransTimeout / 2)
	if len(r.qa.unacked) != len(wrs) || len(r.a.jobs) != 0 {
		b.Fatalf("setup: %d unacked, %d jobs queued; want %d and 0", len(r.qa.unacked), len(r.a.jobs), len(wrs))
	}
	r.qa.retransmitUnacked() // warm the job pool
	r.eng.RunFor(cfg.RetransTimeout / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.qa.retransmitUnacked()
		if len(r.a.jobs)+1 < len(wrs) { // all but the one the engine already picked
			b.Fatalf("iteration %d: %d of %d WRs re-enqueued", i, len(r.a.jobs), len(wrs))
		}
		r.qa.retransmitUnacked() // a second call finds every WR queued and adds none
		if len(r.a.jobs) > len(wrs) {
			b.Fatalf("iteration %d: %d jobs for %d WRs — queued WRs enqueued twice", i, len(r.a.jobs), len(wrs))
		}
		r.eng.RunFor(cfg.RetransTimeout / 2)
	}
}
