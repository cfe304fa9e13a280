package xrdma

import (
	"errors"
	"fmt"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// Path doctor: the gray-failure plane. The PR 3 health machine answers a
// binary question — is the peer reachable at all — and its remedies are
// heavyweight (QP re-establishment, TCP fallback). Production postmortems
// are dominated by the other failure shape: a browned-out optic on one
// spine path that RC go-back-N silently absorbs at a permanent latency
// and goodput cost. The doctor closes that gap with a per-link EWMA
// score fed by deltas of counters the stack already keeps (QP
// retransmits, RNR NAKs, per-QP corrupt drops, RTT inflation against a
// learned baseline). The verdict — Clean / Suspect / Sick — is about the
// *path*, deliberately distinct from the health state: a sick path never
// triggers a needless QP teardown. The cure is ECMP re-pathing: rotate
// the QP's flow label (the RoCEv2 UDP-source-port trick) so the fabric's
// deterministic per-flow hash steers the connection onto a different
// equal-cost path, with seeded label choice, bounded rotations and a
// cooldown. Only when every tried path stays sick does the doctor
// escalate to the link's recovery machine (link.fail).

// PathVerdict classifies a channel's network path.
type PathVerdict uint8

const (
	// PathClean: no symptoms beyond noise.
	PathClean PathVerdict = iota
	// PathSuspect: elevated symptoms; keep watching, don't act yet.
	PathSuspect
	// PathSick: sustained symptoms; rotate the flow label.
	PathSick
)

func (v PathVerdict) String() string { return [...]string{"clean", "suspect", "sick"}[v] }

// ErrPathSick is the escalation cause handed to the health machine when
// every rotation budgeted for the sick episode failed to find a clean
// path — at that point the fault is not one ECMP leg but the peer or the
// whole fabric slice, which is exactly the PR 3 machinery's job.
var ErrPathSick = errors.New("xrdma: every ECMP path stayed sick")

// Doctor tuning. The weights rank symptom severity: a retransmit means
// the RTO expired (whole-window stall), a corrupt drop means physical
// damage, an RNR NAK merely means the peer was briefly unprovisioned.
// Thresholds are in EWMA score points; one scan with a single retransmit
// already clears the suspect bar, sustained symptoms clear the sick bar.
const (
	pdWeightRetx    = 3.0
	pdWeightRNR     = 1.0
	pdWeightCorrupt = 2.0
	pdEWMA          = 0.5 // new-sample weight of the score EWMA
	pdSuspectScore  = 1.0
	pdSickScore     = 3.0
	// RTT inflation: mean-RTT / learned-baseline above this ratio adds
	// (ratio - bar) * weight score points, capped below the sick bar.
	// The cap is load-bearing: RTT is measured request→response, so a
	// backlog draining after a re-path (or a send-queue stall) reports
	// stale, enormous samples — corroborating evidence for Suspect, but
	// only the hardware counters (retransmits, corrupt drops), which
	// cannot implicate the new path, may push the verdict to Sick.
	pdRTTInflationBar    = 1.5
	pdRTTInflationWeight = 2.0
	pdRTTContribCap      = 1.9
	// Baseline learning rate while the path is symptom-free.
	pdBaselineEWMA = 0.1
	// Consecutive clean scans before a past episode's rotation count is
	// forgiven (a freshly rotated path must prove itself before the
	// budget resets).
	pdCleanScansToForgive = 4
	// Sick scans tolerated after the rotation budget is spent before the
	// doctor escalates to the health machine.
	pdSickScansToEscalate = 3
	// Peer hinting. Rotating this QP's flow label only re-paths its own
	// transmit direction; the symptoms a doctor reads off the RX side —
	// corrupt drops, inflated request→response RTT — implicate the path
	// the PEER's flow label picks, which only the peer can rotate. When a
	// sick episode's evidence is RX-dominated the doctor sends a
	// PATH_HINT control frame; the receiving doctor folds pdHintBoost
	// into its next scan as transmit-side evidence. The boost is sized so
	// a single hint only reaches Suspect — one false accusation never
	// rotates a healthy path — while a REPEATED accusation (another hint
	// within the streak window) doubles the boost and forces the sick
	// verdict: the peer has now said twice that its receive side is
	// suffering on the path our flow label picks.
	pdHintBoost           = 4.0
	pdHintStreakWindowMul = 8 // × PathRehashCooldown
)

// pathDoctor is the per-QP scorer state. It lives inside the link
// (link.pathScan is the driver) and runs synchronously from the context housekeeping tick — no
// events of its own, so a zero-fault run's event sequence is untouched.
type pathDoctor struct {
	score   float64
	verdict PathVerdict
	baseRTT float64 // learned clean-path mean RTT (ns)
	inited  bool

	// Counter watermarks for delta extraction.
	lastRetx    int64
	lastRNR     int64
	lastCorrupt int64

	// RTT accrual between scans (fed by deliver on every response).
	rttSum int64
	rttCnt int64

	// Sick-episode state.
	rotations     int // rotations spent this episode
	cleanScans    int
	sickScans     int // sick scans after the rotation budget ran out
	cooldownUntil sim.Time

	// Episode evidence, split by the direction it implicates: txEvid is
	// what rotating OUR flow label can cure (retransmits, RNR, peer
	// hints), rxEvid what only the peer's rotation can (RX corrupt
	// drops, round-trip inflation). Drives the hint-vs-rotate decision.
	txEvid        float64
	rxEvid        float64
	boost         float64 // pending PATH_HINT evidence, consumed next scan
	hintMuteUntil sim.Time
	hintStreak    int // consecutive hints within the streak window
	lastHintAt    sim.Time

	rehashes      int64 // lifetime rotations (gauge)
	firstRehashAt sim.Time

	// log is the deterministic verdict/rehash history the grayhaul
	// digest compares bit-for-bit across runs and -j parallelism.
	log []string
}

// observeRTT accrues one request→response RTT sample. Plain field
// arithmetic on the delivery path; the scan consumes and resets it.
func (d *pathDoctor) observeRTT(rtt sim.Duration) {
	d.rttSum += int64(rtt)
	d.rttCnt++
}

// resync re-bases the counter watermarks, discarding accrued symptoms.
// Used when the channel is not scannable (degraded, mocked, closed) and
// after a recovery adoption, so a fresh QP never inherits stale blame.
func (d *pathDoctor) resync(retx, rnr, corrupt int64) {
	d.lastRetx, d.lastRNR, d.lastCorrupt = retx, rnr, corrupt
	d.rttSum, d.rttCnt = 0, 0
	d.txEvid, d.rxEvid, d.boost = 0, 0, 0
	d.hintStreak, d.lastHintAt = 0, 0
	d.inited = true
}

// resetEpisode clears verdict state after a recovery adoption: the new
// QP starts clean with a full rotation budget (lifetime counters and the
// learned RTT baseline survive).
func (d *pathDoctor) resetEpisode() {
	d.score = 0
	d.verdict = PathClean
	d.rotations = 0
	d.cleanScans = 0
	d.sickScans = 0
	d.cooldownUntil = 0
	d.txEvid, d.rxEvid, d.boost = 0, 0, 0
	d.hintStreak, d.lastHintAt = 0, 0
	d.inited = false
}

// pathScan drives every link's doctor once per housekeeping tick, in
// creation order so any seeded label draws consume the RNG
// deterministically.
func (c *Context) pathScan() {
	if !c.cfg.PathDoctor {
		return
	}
	now := c.eng.Now()
	for i := 0; i < len(c.links); i++ {
		c.links[i].pathScan(now)
	}
}

// scoreScan folds one tick's counter deltas and RTT samples into the
// EWMA score and re-derives the verdict; reports whether the verdict
// changed.
func (d *pathDoctor) scoreScan(retx, rnr, corrupt int64) bool {
	dRetx := retx - d.lastRetx
	dRNR := rnr - d.lastRNR
	dCorrupt := corrupt - d.lastCorrupt
	d.lastRetx, d.lastRNR, d.lastCorrupt = retx, rnr, corrupt
	if dRetx < 0 {
		dRetx = 0
	}
	if dRNR < 0 {
		dRNR = 0
	}
	if dCorrupt < 0 {
		dCorrupt = 0
	}
	// txRaw implicates the path our own flow label picks; rxRaw the
	// peer's. A received PATH_HINT is the peer's RX evidence about our
	// TX path, so the pending boost lands on the tx side.
	txRaw := pdWeightRetx*float64(dRetx) + pdWeightRNR*float64(dRNR) + d.boost
	d.boost = 0
	rxRaw := pdWeightCorrupt * float64(dCorrupt)

	var mean float64
	if d.rttCnt > 0 {
		mean = float64(d.rttSum) / float64(d.rttCnt)
	}
	d.rttSum, d.rttCnt = 0, 0
	if mean > 0 {
		if d.baseRTT == 0 {
			d.baseRTT = mean
		} else if infl := mean / d.baseRTT; infl > pdRTTInflationBar {
			contrib := min((infl-pdRTTInflationBar)*pdRTTInflationWeight, pdRTTContribCap)
			// Round-trip inflation cannot name a direction; it counts
			// toward the verdict but, for attribution, toward the side
			// only the peer can cure — our own rotation is already
			// justified by the hardware counters when the TX path is at
			// fault.
			rxRaw += contrib
		} else if txRaw == 0 && rxRaw == 0 {
			// Symptom-free scan: keep learning the clean baseline.
			d.baseRTT = (1-pdBaselineEWMA)*d.baseRTT + pdBaselineEWMA*mean
		}
	}
	d.txEvid += txRaw
	d.rxEvid += rxRaw

	d.score = (1-pdEWMA)*d.score + pdEWMA*(txRaw+rxRaw)

	v := PathClean
	switch {
	case d.score >= pdSickScore:
		v = PathSick
	case d.score >= pdSuspectScore:
		v = PathSuspect
	}
	if v == PathClean {
		// Episode over: attribution restarts at the next symptom.
		d.txEvid, d.rxEvid = 0, 0
	}
	if v == d.verdict {
		return false
	}
	d.verdict = v
	return true
}

// maybeHint sends the peer a PATH_HINT when this sick episode's evidence
// is dominated by symptoms only the peer's flow-label rotation can cure
// (RX corrupt drops, round-trip inflation). Rate-limited by the rehash
// cooldown so a long-sick episode nudges the peer once per settle
// window, not once per scan.
func (d *pathDoctor) maybeHint(c *Context, now sim.Time, riders []*Channel) {
	if len(riders) == 0 || now < d.hintMuteUntil {
		return
	}
	if d.rxEvid == 0 || d.rxEvid < d.txEvid {
		return
	}
	d.hintMuteUntil = now.Add(c.cfg.PathRehashCooldown)
	c.Stats.PathHints++
	c.tel.Flight.Record(now, telemetry.CatPathHint, int32(c.Node()), riders[0].QPN(), int64(riders[0].Peer), 0)
	d.log = append(d.log, fmt.Sprintf("t=%v node=%d hint-sent", now, c.Node()))
	riders[0].sendCtrl(kindPathHint) // any rider's ctrl frame reaches the peer's doctor for this QP
}

// noteHint folds a received PATH_HINT into the next scan: the peer's
// receive side is suffering on the path OUR flow label picks. Hints in
// a streak (separated by less than the streak window) escalate the
// boost; a lone hint cannot push a symptom-free doctor past Suspect.
func (d *pathDoctor) noteHint(c *Context, now sim.Time) {
	c.Stats.PathHintsRecv++
	if d.lastHintAt != 0 && now.Sub(d.lastHintAt) <= pdHintStreakWindowMul*c.cfg.PathRehashCooldown {
		d.hintStreak++
	} else {
		d.hintStreak = 1
	}
	d.lastHintAt = now
	b := pdHintBoost
	if d.hintStreak > 1 {
		b = 2 * pdHintBoost
	}
	if d.boost < b {
		d.boost = b
	}
	d.log = append(d.log, fmt.Sprintf("t=%v node=%d hint-recv #%d", now, c.Node(), d.hintStreak))
}

// rotateOrEscalate is the Sick-verdict remedy: rotate the flow label
// while the episode budget lasts, otherwise count the path as terminally
// sick and hand the link to the health machine through escalate.
func (d *pathDoctor) rotateOrEscalate(c *Context, qpn uint32, now sim.Time, escalate func(error)) {
	if now < d.cooldownUntil {
		// Give the freshly rotated path its settle time before judging
		// it (in-flight go-back-N recovery from the old path still bleeds
		// into the counters).
		return
	}
	if d.rotations < c.cfg.PathRehashLimit {
		// Seeded label choice: deterministic per run, never zero (zero
		// means "canonical path", the one we are fleeing).
		label := c.rng.Uint64() | 1
		if err := c.vctx.ModifyFlowLabel(qpn, label); err != nil {
			c.tel.Flight.Record(now, telemetry.CatPathRehash, int32(c.Node()), qpn, int64(d.rotations), 0)
			d.sickScans++ // an unrotatable QP burns escalation credit
		} else {
			d.rotations++
			d.rehashes++
			if d.firstRehashAt == 0 {
				d.firstRehashAt = now
			}
			c.Stats.PathRehashes++
			d.cooldownUntil = now.Add(c.cfg.PathRehashCooldown)
			// The new path is judged on its own symptoms: drop the score
			// back to the suspect bar rather than zero so a still-sick
			// path re-crosses the sick bar within a scan or two.
			d.score = pdSuspectScore
			d.sickScans = 0
			d.txEvid, d.rxEvid = 0, 0
			c.tel.Flight.Record(now, telemetry.CatPathRehash, int32(c.Node()), qpn, int64(d.rotations), int64(label&0xffff))
			d.log = append(d.log, fmt.Sprintf("t=%v node=%d rehash #%d", now, c.Node(), d.rotations))
			return
		}
	} else {
		d.sickScans++
	}
	if d.sickScans >= pdSickScansToEscalate {
		c.Stats.PathEscalations++
		d.log = append(d.log, fmt.Sprintf("t=%v node=%d escalate", now, c.Node()))
		d.resetEpisode()
		escalate(ErrPathSick)
	}
}

// --- channel surface ---------------------------------------------------------

// doctorRef resolves the doctor that owns this channel's path: its link's
// (one path, one scorer, shared by every rider). An unattached descriptor
// has no path yet and reads as a pristine one.
func (ch *Channel) doctorRef() *pathDoctor {
	if ch.lk == nil {
		return &pathDoctor{}
	}
	return &ch.lk.doctor
}

// PathVerdict reports the doctor's current classification of this
// channel's network path.
func (ch *Channel) PathVerdict() PathVerdict { return ch.doctorRef().verdict }

// Rehashes reports lifetime flow-label rotations on this channel's path.
func (ch *Channel) Rehashes() int64 { return ch.doctorRef().rehashes }

// FirstRehashAt reports when the doctor first rotated this channel's
// flow label (0 = never) — drills assert the detection window with it.
func (ch *Channel) FirstRehashAt() sim.Time { return ch.doctorRef().firstRehashAt }

// FlowHash exposes the QP's effective ECMP flow key so experiments can
// predict (and then brown out) the exact spine path this channel rides.
func (ch *Channel) FlowHash() uint64 {
	if ch.lk == nil || ch.lk.qp == nil {
		return 0
	}
	return ch.lk.qp.FlowHash()
}

// PathLog returns the doctor's deterministic verdict/rehash history.
func (ch *Channel) PathLog() []string { return ch.doctorRef().log }

// OnPathVerdict installs an observer for verdict transitions.
func (ch *Channel) OnPathVerdict(fn func(PathVerdict)) { ch.onPathVerdict = fn }
