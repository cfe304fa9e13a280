package rnic

import (
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// The end-to-end congestion control loop (Zhu et al., SIGCOMM'15) that
// Alibaba deploys fine-tuned (§II-C): the paper's published constants
// scaled to a 25 Gbps link. Config.DCQCN switches the loop off.
const (
	dcqcnG           float64      = 1.0 / 16              // alpha EWMA gain
	dcqcnAlphaTimer  sim.Duration = 55 * sim.Microsecond  // alpha decay period when no CNPs arrive
	dcqcnRateTimer   sim.Duration = 300 * sim.Microsecond // rate-increase timer period
	dcqcnByteCount   int64        = 10 << 20              // rate-increase byte counter threshold
	dcqcnFastSteps   int          = 5                     // fast-recovery stages before additive increase
	dcqcnRaiBps      int64        = 400_000_000           // additive increase step (50 MB/s)
	dcqcnHaiBps      int64        = 2_000_000_000         // hyper increase step
	dcqcnMinRateBps  int64        = 100_000_000           // floor: progress guarantee
	dcqcnCNPReactMin sim.Duration = 50 * sim.Microsecond  // min spacing between rate cuts (one per CNP window)
)

// dcqcnState is the per-QP reaction point, created at the QP's first CNP
// (QP.reactionPoint). Until a cut its rate is line rate and its byte counter
// and timers idle, which is exactly how a QP without one paces (QP.paceRate).
type dcqcnState struct {
	eng     *sim.Engine
	lineBps int64
	nic     *NIC // telemetry sink
	qpn     uint32

	rc, rt int64    // current and target rate (bits/s)
	was    int64    // rc before its last change, in force before since
	since  sim.Time // the instant of rc's last change

	// The alpha decay in closed form: alpha as of the expiries applied so
	// far, and alphaNext, the next expiry due (sim.MaxTime once the decay
	// has stopped). Only onCNP reads alpha, so decay applies the expiries
	// due when it does, not an event per expiry.
	alpha     float64
	alphaNext sim.Time
	lastCut   sim.Time

	timerEvents int   // rate-timer expiries since last cut
	byteEvents  int   // byte-counter expiries since last cut
	bytesSent   int64 // toward the byte counter

	// The decay's end and the rate timer, and their callbacks, bound once
	// (newDCQCN): re-arming allocates nothing.
	decayEv, rateEv sim.Event
	decayFn, rateFn func()

	// RateCuts counts CNP-triggered reductions (diagnostics).
	RateCuts int64
}

func newDCQCN(eng *sim.Engine, lineBps int64, nic *NIC, qpn uint32) *dcqcnState {
	s := &dcqcnState{eng: eng, lineBps: lineBps, nic: nic, qpn: qpn,
		rc: lineBps, rt: lineBps, alpha: 1, alphaNext: sim.MaxTime, lastCut: -1 << 60}
	s.decayFn = func() {
		// A bump since the decay was armed lengthened it: it ends later.
		if s.decay(s.eng.Now()); s.alphaNext != sim.MaxTime {
			s.armDecay()
		}
	}
	s.rateFn = func() {
		s.timerEvents++
		s.increase()
		if s.rc < s.lineBps {
			s.armRate()
		}
	}
	return s
}

// reactionPoint returns the QP's DCQCN state, creating it at the first CNP.
func (qp *QP) reactionPoint() *dcqcnState {
	if qp.rate == nil {
		n := qp.nic
		qp.rate = newDCQCN(n.eng, n.LineBps(), n, qp.QPN)
	}
	return qp.rate
}

// paceRate returns the QP's sending rate in bits/s as of at, 0 when DCQCN
// is off (unlimited): line rate until a CNP has created the reaction point.
// A change takes force at its instant: before it, the rate it replaced holds.
func (qp *QP) paceRate(at sim.Time) int64 {
	n := qp.nic
	switch {
	case !n.Cfg.DCQCN:
		return 0
	case qp.rate == nil:
		return n.LineBps()
	case at < qp.rate.since:
		return qp.rate.was
	}
	return qp.rate.rc
}

// stop cancels the decay's event and the rate timer of a QP's reaction
// point, if it has one: on RESET and destroy, which drop the state, so
// nothing will read the alpha and rate they adjust.
func (s *dcqcnState) stop() {
	if s != nil {
		s.eng.Cancel(s.decayEv)
		s.eng.Cancel(s.rateEv)
	}
}

// decay applies every alpha expiry due by now, one multiplication each, in
// order, until alpha falls to 0.001 and the decay stops. An expiry at now
// itself counts as applied: as an event it would be armed a period ahead,
// so it orders before a CNP's arrival, which is scheduled a few µs ahead.
func (s *dcqcnState) decay(now sim.Time) {
	for s.alphaNext <= now {
		if s.alpha *= 1 - dcqcnG; s.alpha > 0.001 {
			s.alphaNext = s.alphaNext.Add(dcqcnAlphaTimer)
		} else {
			s.alphaNext = sim.MaxTime
		}
	}
}

// armDecay moves the decay's one foreground event to the last expiry the
// decay reaches if no CNP comes first, so Run runs until the decay ends.
func (s *dcqcnState) armDecay() {
	a, end := s.alpha, s.alphaNext
	for a *= 1 - dcqcnG; a > 0.001; a *= 1 - dcqcnG {
		end = end.Add(dcqcnAlphaTimer)
	}
	s.eng.Cancel(s.decayEv)
	s.decayEv = s.eng.At(end, s.decayFn)
}

// onCNP is the reaction-point cut. At most one cut per dcqcnCNPReactMin.
func (s *dcqcnState) onCNP() {
	now := s.eng.Now()
	s.decay(now)
	if now.Sub(s.lastCut) < dcqcnCNPReactMin {
		// Alpha still absorbs the congestion signal.
		s.alpha = (1-dcqcnG)*s.alpha + dcqcnG
		return
	}
	s.lastCut = now
	s.RateCuts++
	s.rt, s.was, s.since = s.rc, s.rc, now
	s.rc = int64(float64(s.rc) * (1 - s.alpha/2))
	if s.rc < dcqcnMinRateBps {
		s.rc = dcqcnMinRateBps
	}
	n := s.nic
	n.dcqcnCuts.Inc()
	n.tel.Flight.Record(now, telemetry.CatDCQCNCut, int32(n.Node), s.qpn, s.rc, s.rt)
	s.alpha = (1-dcqcnG)*s.alpha + dcqcnG
	s.timerEvents, s.byteEvents, s.bytesSent = 0, 0, 0
	s.alphaNext = now.Add(dcqcnAlphaTimer)
	s.armDecay()
	s.armRate()
}

func (s *dcqcnState) armRate() {
	s.eng.Cancel(s.rateEv)
	s.rateEv = s.eng.After(dcqcnRateTimer, s.rateFn)
}

// onBytes feeds the byte counter from the transmit path.
func (s *dcqcnState) onBytes(n int) {
	if s == nil || s.rc >= s.lineBps {
		return
	}
	s.bytesSent += int64(n)
	if s.bytesSent >= dcqcnByteCount {
		s.bytesSent = 0
		s.byteEvents++
		s.increase()
	}
}

// increase implements the three-stage recovery.
func (s *dcqcnState) increase() {
	minEv := s.timerEvents
	if s.byteEvents < minEv {
		minEv = s.byteEvents
	}
	maxEv := s.timerEvents
	if s.byteEvents > maxEv {
		maxEv = s.byteEvents
	}
	switch {
	case maxEv <= dcqcnFastSteps: // fast recovery toward target
		// no target change
	case minEv > dcqcnFastSteps: // hyper increase
		s.rt += dcqcnHaiBps
	default: // additive increase
		s.rt += dcqcnRaiBps
	}
	if s.rt > s.lineBps {
		s.rt = s.lineBps
	}
	s.was, s.since = s.rc, s.eng.Now()
	s.rc = (s.rc + s.rt) / 2
	// Snap to line rate once close: integer halving otherwise converges
	// to lineBps-1 and keeps the increase timer alive forever.
	if s.rc >= s.lineBps-1000 {
		s.rc = s.lineBps
	}
}
