package xrdma

import (
	"slices"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Tracing (§VI-A): in req-rsp mode each traced message carries the sender's
// clock; the receiver, knowing the estimated clock offset from the sync
// service, decomposes request latency into network time and the rest. The
// context keeps no records of its own: the estimates go to the engine's
// timeline (when it is recording), the RTT histogram and the flight recorder,
// and slow-operation incidents (Config.SlowThreshold) count in Stats.SlowOps.

// onRecv computes the one-way latency of a traced inbound message:
// receiverClock − T1 − offset (valid when a clock offset for the peer is
// known; otherwise raw and skew-polluted).
func (c *Context) onRecv(ch *Channel, m *Msg) {
	oneWay := sim.Duration(c.LocalClock()-m.T1) + c.toff[ch.Peer]
	ev := "trace.resp"
	if m.IsReq {
		ev = "trace.req"
	}
	now := c.eng.Now()
	c.tel.Trace.Instant(ev, c.track, now, int64(oneWay))
	if oneWay > c.cfg.SlowThreshold {
		c.slowOp(ch, now, oneWay, m.MsgID)
	}
}

// onResponse records the full RTT of a completed request.
func (c *Context) onResponse(ch *Channel, m *Msg, sentAt sim.Time) {
	now := c.eng.Now()
	rtt := now.Sub(sentAt)
	c.rttHist.Observe(int64(rtt))
	c.tel.Trace.Complete("rtt", c.track, sentAt, rtt, int64(m.MsgID))
	if rtt > 2*c.cfg.SlowThreshold {
		c.slowOp(ch, now, rtt, m.MsgID)
	}
}

// slowOp counts one slow-operation incident and makes the channel a blame
// suspect, so the next few requests are force-sampled.
func (c *Context) slowOp(ch *Channel, now sim.Time, d sim.Duration, msgID uint64) {
	c.Stats.SlowOps++
	ch.blameSuspect = blameSuspectBudget
	c.tel.Flight.Record(now, telemetry.CatSlowOp, int32(c.Node()), ch.QPN(), int64(d), int64(msgID))
}

// onBlame reconstructs a blame-traced request's critical path the moment
// its response is delivered. Requester-local stages come from the WR
// lifecycle and QP recovery-counter deltas; request-direction fabric and
// remote stages arrive mirrored in the response's blame extension; the
// response direction rides its own in-band accumulator. Whatever the
// stamps don't cover is the residual (base propagation + software costs).
func (c *Context) onBlame(ch *Channel, m *Msg, b *reqBlame) {
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
	// Request-direction loss recovery: the cumulative recovery residency
	// since transmit of the QP the request was posted on, while the link
	// still holds it (on a fresh QP or the fallback, nothing is attributable).
	if qp := b.qp; qp != nil && qp == ch.lk.qp {
		if d := qp.Counters.RTORecoveryNs - b.rtoRef; d > 0 {
			rec.Dur[telemetry.StageRTORecovery] = sim.Duration(d)
		}
		if d := qp.Counters.RNRRecoveryNs - b.rnrRef; d > 0 {
			rec.Dur[telemetry.StageRNRRecovery] = sim.Duration(d)
		}
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
