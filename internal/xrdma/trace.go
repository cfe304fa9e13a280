package xrdma

import (
	"fmt"
	"slices"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Tracer implements §VI-A: in req-rsp mode each traced message carries the
// sender's clock; the receiver, knowing the estimated clock offset from
// the sync service, decomposes request latency into network time and the
// rest. Records live in a bounded ring consumed by XR-Stat / the monitor.
type Tracer struct {
	ctx  *Context
	ring *telemetry.Ring[TraceRecord]

	// Slow-operation incidents (threshold = Config.SlowThreshold).
	SlowOps int64
}

// TraceRecord is one measured message (xrdma_trace_req's raw material).
type TraceRecord struct {
	Peer  fabric.NodeID
	MsgID uint64
	Kind  string
	// One-way estimate: receiverClock − T1 − offset (valid when a clock
	// offset for the peer is known; otherwise raw and skew-polluted).
	OneWay sim.Duration
	// RTT for completed request/response pairs (0 otherwise).
	RTT sim.Duration
	At  sim.Time
}

// tracerRingCap is the record ring capacity (XR-Stat reports how much the
// ring truncated).
const tracerRingCap = 4096

func newTracer(ctx *Context) *Tracer {
	return &Tracer{ctx: ctx, ring: telemetry.NewRing[TraceRecord](tracerRingCap)}
}

// push appends one record, overwriting the oldest when full. O(1): the
// telemetry ring advances head/tail cursors instead of shifting elements.
func (t *Tracer) push(r TraceRecord) { t.ring.Push(r) }

// Records returns a copy of the trace ring (oldest first).
func (t *Tracer) Records() []TraceRecord { return t.ring.Snapshot() }

// Dropped reports how many records were overwritten since creation.
func (t *Tracer) Dropped() uint64 { return t.ring.Dropped() }

// onRecv computes the one-way latency of a traced inbound message.
func (t *Tracer) onRecv(ch *Channel, m *Msg) {
	off := t.ctx.toff[ch.Peer]
	oneWay := sim.Duration(t.ctx.LocalClock()-m.T1) + off
	kind := "RESP"
	if m.IsReq {
		kind = "REQ"
	}
	now := t.ctx.eng.Now()
	rec := TraceRecord{Peer: ch.Peer, MsgID: m.MsgID, Kind: kind, OneWay: oneWay, At: now}
	if oneWay > t.ctx.cfg.SlowThreshold {
		t.SlowOps++
		ch.blameSuspect = blameSuspectBudget
		t.ctx.tel.Flight.Record(now, telemetry.CatSlowOp, int32(t.ctx.Node()), ch.QPN(), int64(oneWay), int64(m.MsgID))
		t.ctx.tel.Trace.Instant("slow.op", t.ctx.track, now, int64(oneWay))
		t.ctx.logf("slow %s msg %d from %d: one-way %v", kind, m.MsgID, ch.Peer, oneWay)
	}
	t.push(rec)
}

// onResponse records the full RTT of a completed request.
func (t *Tracer) onResponse(ch *Channel, m *Msg, sentAt sim.Time) {
	now := t.ctx.eng.Now()
	rtt := now.Sub(sentAt)
	t.push(TraceRecord{Peer: ch.Peer, MsgID: m.MsgID, Kind: "RTT", RTT: rtt, At: now})
	t.ctx.rttHist.Observe(int64(rtt))
	t.ctx.tel.Trace.Complete("rtt", t.ctx.track, sentAt, rtt, int64(m.MsgID))
	if rtt > 2*t.ctx.cfg.SlowThreshold {
		t.SlowOps++
		ch.blameSuspect = blameSuspectBudget
		t.ctx.tel.Flight.Record(now, telemetry.CatSlowOp, int32(t.ctx.Node()), ch.QPN(), int64(rtt), int64(m.MsgID))
		t.ctx.tel.Trace.Instant("slow.op", t.ctx.track, now, int64(rtt))
		t.ctx.logf("slow request %d to %d: rtt %v", m.MsgID, ch.Peer, rtt)
	}
}

// onBlame reconstructs a blame-traced request's critical path the moment
// its response is delivered. Requester-local stages come from the WR
// lifecycle and QP recovery-counter deltas; request-direction fabric and
// remote stages arrive mirrored in the response's blame extension; the
// response direction rides its own in-band accumulator. Whatever the
// stamps don't cover is the residual (base propagation + software costs).
func (t *Tracer) onBlame(ch *Channel, m *Msg, b *reqBlame) {
	c := t.ctx
	mb := m.blame
	now := c.eng.Now()
	rec := telemetry.BlameRec{
		MsgID: m.MsgID, Node: int32(c.Node()), QPN: ch.QPN(),
		At: b.enqAt, RTT: now.Sub(b.enqAt),
	}
	if t := ch.tenant; t != nil {
		rec.Tenant = t.id
	}
	_, started, finished := b.wr.TxTimes()
	rec.Dur[telemetry.StageTxStall] = b.txAt.Sub(b.enqAt)
	if started > b.txAt {
		rec.Dur[telemetry.StageSQWait] = started.Sub(b.txAt)
	}
	if finished > started {
		rec.Dur[telemetry.StageSerialize] = finished.Sub(started)
	}
	// Remote mirror (request-direction fabric + responder stages).
	rec.Dur[telemetry.StageFabricQueue] = mb.reqQueue
	rec.Dur[telemetry.StagePFCPause] = mb.reqPause
	rec.Dur[telemetry.StageReassembly] = mb.reasm
	rec.Dur[telemetry.StageHandler] = mb.handler
	rec.ECN = mb.ecn
	// Response-direction in-band accumulator.
	if rx := mb.rx; rx != nil {
		rec.Dur[telemetry.StageFabricQueue] += rx.Queue
		rec.Dur[telemetry.StagePFCPause] += rx.Pause
		rec.ECN += rx.ECN
		if rx.FirstAt > 0 && m.RecvAt > rx.FirstAt {
			rec.Dur[telemetry.StageReassembly] += m.RecvAt.Sub(rx.FirstAt)
		}
	}
	// Request-direction loss recovery: this QP's cumulative recovery
	// residency since transmit (negative deltas mean the channel moved to
	// a fresh QP mid-flight — nothing attributable).
	if d := ch.lk.qp.Counters.RTORecoveryNs - b.rtoRef; d > 0 {
		rec.Dur[telemetry.StageRTORecovery] = sim.Duration(d)
	}
	if d := ch.lk.qp.Counters.RNRRecoveryNs - b.rnrRef; d > 0 {
		rec.Dur[telemetry.StageRNRRecovery] = sim.Duration(d)
	}
	// PFC pause is a sub-component of fabric queueing, so it is excluded
	// from the attribution sum (it would double count).
	var attributed sim.Duration
	for s := telemetry.Stage(0); s < telemetry.StageResidual; s++ {
		if s == telemetry.StagePFCPause {
			continue
		}
		attributed += rec.Dur[s]
	}
	if resid := rec.RTT - attributed; resid > 0 {
		rec.Dur[telemetry.StageResidual] = resid
	}
	c.tel.Blame.Observe(&rec)
	c.tel.Blame.EmitSpans(c.tel.Trace, c.track, &rec)
}

// Tracer returns the context's tracer (xrdma_trace_req's query surface).
func (c *Context) Tracer() *Tracer { return c.trace }

// SyncClock runs the clock synchronisation service against the channel's
// peer: a few pings, median offset retained for trace decomposition.
func (ch *Channel) SyncClock(rounds int, done func(offset sim.Duration, err error)) {
	if rounds <= 0 {
		rounds = 3
	}
	offsets := make([]sim.Duration, 0, rounds)
	var step func()
	step = func() {
		ch.Ping(func(rtt, off sim.Duration, err error) {
			if err != nil {
				done(0, err)
				return
			}
			offsets = append(offsets, off)
			if len(offsets) < rounds {
				step()
				return
			}
			slices.Sort(offsets)
			med := offsets[len(offsets)/2]
			ch.ctx.toff[ch.Peer] = med
			done(med, nil)
		})
	}
	step()
}

func (r TraceRecord) String() string {
	if r.Kind == "RTT" {
		return fmt.Sprintf("[%v] msg %d peer %d rtt=%v", r.At, r.MsgID, r.Peer, r.RTT)
	}
	return fmt.Sprintf("[%v] %s %d peer %d oneway=%v", r.At, r.Kind, r.MsgID, r.Peer, r.OneWay)
}
