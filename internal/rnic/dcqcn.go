package rnic

import (
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// DCQCNConfig parameterises the end-to-end congestion control loop
// (Zhu et al., SIGCOMM'15) that Alibaba deploys fine-tuned (§II-C). The
// defaults follow the paper's published constants scaled to a 25 Gbps
// link.
type DCQCNConfig struct {
	Enabled bool

	G           float64      // alpha EWMA gain
	AlphaTimer  sim.Duration // alpha decay period when no CNPs arrive
	RateTimer   sim.Duration // rate-increase timer period
	ByteCount   int64        // rate-increase byte counter threshold
	FastSteps   int          // fast-recovery stages before additive increase
	RaiBps      int64        // additive increase step
	HaiBps      int64        // hyper increase step
	MinRateBps  int64        // floor: progress guarantee
	CNPReactMin sim.Duration // min spacing between rate cuts (one per CNP window)
}

// DefaultDCQCN returns the standard parameter set.
func DefaultDCQCN() DCQCNConfig {
	return DCQCNConfig{
		Enabled:     true,
		G:           1.0 / 16,
		AlphaTimer:  55 * sim.Microsecond,
		RateTimer:   300 * sim.Microsecond,
		ByteCount:   10 << 20,
		FastSteps:   5,
		RaiBps:      400_000_000, // 50 MB/s
		HaiBps:      2_000_000_000,
		MinRateBps:  100_000_000,
		CNPReactMin: 50 * sim.Microsecond,
	}
}

// dcqcnState is the per-QP reaction point, created at the QP's first CNP
// (QP.reactionPoint). Until a cut its rate is line rate and its byte counter
// and timers idle, which is exactly how a QP without one paces (QP.paceRate).
type dcqcnState struct {
	cfg     *DCQCNConfig
	eng     *sim.Engine
	lineBps int64
	nic     *NIC // telemetry sink; nil in bare unit tests
	qpn     uint32

	rc, rt  int64 // current and target rate (bits/s)
	alpha   float64
	lastCut sim.Time

	timerEvents int   // rate-timer expiries since last cut
	byteEvents  int   // byte-counter expiries since last cut
	bytesSent   int64 // toward the byte counter

	// The two timers and their callbacks, bound once (newDCQCN): re-arming
	// allocates nothing.
	alphaEv, rateEv sim.Event
	alphaFn, rateFn func()

	// RateCuts counts CNP-triggered reductions (diagnostics).
	RateCuts int64
}

func newDCQCN(cfg *DCQCNConfig, eng *sim.Engine, lineBps int64, nic *NIC, qpn uint32) *dcqcnState {
	s := &dcqcnState{cfg: cfg, eng: eng, lineBps: lineBps, nic: nic, qpn: qpn,
		rc: lineBps, rt: lineBps, alpha: 1, lastCut: -1 << 60}
	s.alphaFn = func() {
		s.alpha *= 1 - s.cfg.G
		if s.alpha > 0.001 {
			s.armAlpha()
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
		qp.rate = newDCQCN(&n.Cfg.DCQCN, n.eng, n.LineBps(), n, qp.QPN)
	}
	return qp.rate
}

// paceRate returns the QP's sending rate in bits/s, 0 when DCQCN is off
// (unlimited): line rate until a CNP has created the reaction point.
func (qp *QP) paceRate() int64 {
	n := qp.nic
	switch {
	case !n.Cfg.DCQCN.Enabled:
		return 0
	case qp.rate == nil:
		return n.LineBps()
	}
	return qp.rate.rc
}

// stop cancels the timers of a QP's reaction point, if it has one: on RESET
// and destroy, when nothing will read the rate they adjust.
func (s *dcqcnState) stop() {
	if s != nil {
		s.eng.Cancel(s.alphaEv)
		s.eng.Cancel(s.rateEv)
	}
}

// onCNP is the reaction-point cut. At most one cut per CNPReactMin.
func (s *dcqcnState) onCNP() {
	if !s.cfg.Enabled {
		return
	}
	now := s.eng.Now()
	if now.Sub(s.lastCut) < s.cfg.CNPReactMin {
		// Alpha still absorbs the congestion signal.
		s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G
		return
	}
	s.lastCut = now
	s.RateCuts++
	s.rt = s.rc
	s.rc = int64(float64(s.rc) * (1 - s.alpha/2))
	if s.rc < s.cfg.MinRateBps {
		s.rc = s.cfg.MinRateBps
	}
	if n := s.nic; n != nil {
		n.dcqcnCuts.Inc()
		n.tel.Flight.Record(now, telemetry.CatDCQCNCut, int32(n.Node), s.qpn, s.rc, s.rt)
		n.tel.Trace.Instant("dcqcn.cut", n.track, now, s.rc)
	}
	s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G
	s.timerEvents, s.byteEvents, s.bytesSent = 0, 0, 0
	s.armAlpha()
	s.armRate()
}

func (s *dcqcnState) armAlpha() {
	s.eng.Cancel(s.alphaEv)
	s.alphaEv = s.eng.After(s.cfg.AlphaTimer, s.alphaFn)
}

func (s *dcqcnState) armRate() {
	s.eng.Cancel(s.rateEv)
	s.rateEv = s.eng.After(s.cfg.RateTimer, s.rateFn)
}

// onBytes feeds the byte counter from the transmit path.
func (s *dcqcnState) onBytes(n int) {
	if s == nil || !s.cfg.Enabled || s.rc >= s.lineBps {
		return
	}
	s.bytesSent += int64(n)
	if s.bytesSent >= s.cfg.ByteCount {
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
	case maxEv <= s.cfg.FastSteps: // fast recovery toward target
		// no target change
	case minEv > s.cfg.FastSteps: // hyper increase
		s.rt += s.cfg.HaiBps
	default: // additive increase
		s.rt += s.cfg.RaiBps
	}
	if s.rt > s.lineBps {
		s.rt = s.lineBps
	}
	s.rc = (s.rc + s.rt) / 2
	// Snap to line rate once close: integer halving otherwise converges
	// to lineBps-1 and keeps the increase timer alive forever.
	if s.rc >= s.lineBps-1000 {
		s.rc = s.lineBps
	}
}
