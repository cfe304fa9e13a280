package rnic

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// tickedRP is the reaction point with the alpha decay it had before the
// closed form: the same cut, bump and rate timer, and one engine event per
// alpha expiry, each arming the next a period later. It is the reference
// dcqcnState.decay must match.
type tickedRP struct {
	*dcqcnState // its decay never runs: alphaNext stays sim.MaxTime
	alphaEv     sim.Event
	alphaFn     func()

	lastTick sim.Time // the last expiry fired
	reach    alphaReach
}

// alphaReach is what a program reached, for TestAlphaDecayClosedForm's
// coverage check.
type alphaReach struct {
	cuts, bumps int
	onTick      int // a CNP on the nanosecond an expiry fired
	decayedOut  int // an expiry that left alpha at 0.001 or less: the chain stopped
	stoppedMid  int // a RESET with an expiry still armed
}

func (r *alphaReach) add(o alphaReach) {
	r.cuts += o.cuts
	r.bumps += o.bumps
	r.onTick += o.onTick
	r.decayedOut += o.decayedOut
	r.stoppedMid += o.stoppedMid
}

func newTickedRP(s *dcqcnState) *tickedRP {
	r := &tickedRP{dcqcnState: s, lastTick: -1}
	r.alphaFn = func() {
		r.lastTick = r.eng.Now()
		r.alpha *= 1 - dcqcnG
		if r.alpha > 0.001 {
			r.armAlpha()
		} else {
			r.reach.decayedOut++
		}
	}
	return r
}

func (r *tickedRP) armAlpha() {
	r.eng.Cancel(r.alphaEv)
	r.alphaEv = r.eng.After(dcqcnAlphaTimer, r.alphaFn)
}

func (r *tickedRP) onCNP() {
	s := r.dcqcnState
	now := s.eng.Now()
	if r.lastTick == now {
		r.reach.onTick++
	}
	if now.Sub(s.lastCut) < dcqcnCNPReactMin {
		r.reach.bumps++
		s.alpha = (1-dcqcnG)*s.alpha + dcqcnG
		return
	}
	r.reach.cuts++
	s.lastCut = now
	s.RateCuts++
	s.rt = s.rc
	s.rc = int64(float64(s.rc) * (1 - s.alpha/2))
	if s.rc < dcqcnMinRateBps {
		s.rc = dcqcnMinRateBps
	}
	s.alpha = (1-dcqcnG)*s.alpha + dcqcnG
	s.timerEvents, s.byteEvents, s.bytesSent = 0, 0, 0
	r.armAlpha()
	s.armRate()
}

func (r *tickedRP) stop() {
	if r.alphaEv.Pending() {
		r.reach.stoppedMid++
	}
	r.eng.Cancel(r.alphaEv)
	r.eng.Cancel(r.rateEv)
}

// runAlphaProgram drives a QP's reaction point, the closed form or the
// ticked reference, through the CNPs, byte counts and RESETs ops encodes,
// and returns what it read after each and where Run returned. A RESET stops
// the reaction point and drops it, as QPReset does; the next op goes to a
// fresh one. The first byte picks the line rate: at 100 Mb/s, the rate
// floor, a cut cannot slow the QP and the rate timer stops one period after
// it, so the alpha decay alone decides when Run returns. Then each op is two
// bytes, a kind and a value. An op fires from an event scheduled less than
// an alpha period before it, as a CNP's arrival is: an expiry due at the
// same nanosecond was armed earlier and fires first.
func runAlphaProgram(ops []byte, ticked bool) (out []string, reach alphaReach) {
	if len(ops) == 0 {
		return nil, reach
	}
	eng := sim.NewEngine()
	line := [2]int64{dcqcnMinRateBps, 25_000_000_000}[ops[0]%2]
	ops = ops[1:]
	nic := &NIC{tel: telemetry.For(eng)}
	var s *dcqcnState
	var ref *tickedRP
	var onCNP, stop func()
	fresh := func() {
		if ref != nil {
			reach.add(ref.reach)
		}
		s = newDCQCN(eng, line, nic, 1)
		onCNP, stop = s.onCNP, s.stop
		if ticked {
			ref = newTickedRP(s)
			onCNP, stop = ref.onCNP, ref.stop
		}
	}
	fresh()
	record := func(what string) {
		s.decay(eng.Now()) // alpha as a CNP now would read it; the reference's never runs
		out = append(out, fmt.Sprintf("%v %s: alpha %v rc %d rt %d", eng.Now(), what, s.alpha, s.rc, s.rt))
	}
	var do func(i int)
	next := func(i int) {
		if i+1 >= len(ops) {
			return
		}
		kind, v := ops[i]%6, sim.Duration(ops[i+1])
		now := eng.Now()
		var at sim.Time
		switch kind {
		case 0: // a CNP up to 51 µs on: inside dcqcnCNPReactMin of a cut or not
			at = now.Add(v * 200)
		case 1: // a CNP past dcqcnCNPReactMin: a cut if the last was one
			at = now.Add(dcqcnCNPReactMin + v*sim.Microsecond)
		case 2: // a CNP on the nanosecond of an expiry of the last cut's chain
			if s.lastCut < 0 {
				at = now.Add(v)
				break
			}
			k := now.Sub(s.lastCut)/dcqcnAlphaTimer + 1 + v%4
			at = s.lastCut.Add(k * dcqcnAlphaTimer)
		case 3: // a CNP up to 25.5 ms on: long enough for alpha to decay out
			at = now.Add(v * 100 * sim.Microsecond)
		default: // a RESET or a byte count, up to 255 µs on
			at = now.Add(v * sim.Microsecond)
		}
		fire := func() { do(i) }
		if lead := dcqcnAlphaTimer / 2; at.Sub(now) > lead {
			eng.At(at.Add(-lead), func() { eng.At(at, fire) })
		} else {
			eng.At(at, fire)
		}
	}
	do = func(i int) {
		switch kind, v := ops[i]%6, int(ops[i+1]); kind {
		case 4:
			stop()
			out = append(out, fmt.Sprintf("%v reset", eng.Now()))
			fresh()
		case 5:
			s.onBytes(v << 16)
			record("bytes")
		default:
			onCNP()
			record("cnp")
		}
		next(i + 2)
	}
	next(0)
	eng.Run()
	out = append(out, fmt.Sprintf("Run returned at %v with %d pending", eng.Now(), eng.Pending()))
	if ref != nil {
		reach.add(ref.reach)
	}
	return out, reach
}

// checkAlphaProgram fails at the first step where the closed form reads
// other than the ticked reference.
func checkAlphaProgram(t *testing.T, ops []byte) alphaReach {
	t.Helper()
	got, _ := runAlphaProgram(ops, false)
	want, reach := runAlphaProgram(ops, true)
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("step %d: closed form %q, ticked %q", i, got[i], want[i])
			}
		}
		t.Fatalf("closed form recorded %d steps, ticked %d", len(got), len(want))
	}
	return reach
}

// TestAlphaDecayClosedForm: the closed-form decay reads the alpha, rc and rt
// the ticked chain does after every CNP, byte count and RESET, and Run
// returns at the same instant, in named programs and in seeded random ones.
// Together they must reach cuts, bumps inside dcqcnCNPReactMin, a CNP on an
// expiry's nanosecond, a chain that decays out and a RESET mid-chain.
func TestAlphaDecayClosedForm(t *testing.T) {
	named := []struct {
		name string
		ops  []byte
	}{
		{"cut then decay out, floor rate", []byte{0, 1, 0}},
		{"cut then decay out, line rate", []byte{1, 1, 0}},
		{"bumps inside react-min", []byte{0, 1, 0, 0, 10, 0, 10, 0, 200, 0, 255}},
		{"cnp on an expiry", []byte{0, 1, 0, 2, 0, 2, 3, 0, 7, 2, 1}},
		{"decays out, then bump and cut", []byte{1, 1, 3, 3, 255, 0, 3, 1, 0}},
		{"reset mid-chain", []byte{0, 1, 0, 4, 10, 0, 2, 1, 0, 4, 200}},
		{"bytes at line rate", []byte{1, 1, 0, 5, 255, 5, 255, 2, 5}},
	}
	var reach alphaReach
	for _, c := range named {
		t.Run(c.name, func(t *testing.T) { reach.add(checkAlphaProgram(t, c.ops)) })
	}
	for seed := uint64(1); seed <= 32; seed++ {
		rng := sim.NewRNG(seed)
		ops := make([]byte, 81)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { reach.add(checkAlphaProgram(t, ops)) })
	}
	t.Logf("cuts %d, bumps %d, CNPs on an expiry %d, chains decayed out %d, RESETs mid-chain %d",
		reach.cuts, reach.bumps, reach.onTick, reach.decayedOut, reach.stoppedMid)
	if slices.Min([]int{reach.cuts, reach.bumps, reach.onTick, reach.decayedOut, reach.stoppedMid}) == 0 {
		t.Error("the programs missed a case")
	}
}

// FuzzAlphaDecay runs TestAlphaDecayClosedForm's check on coverage-guided
// programs.
func FuzzAlphaDecay(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 10, 2, 0, 3, 255, 0, 3})
	f.Add([]byte{1, 1, 0, 2, 1, 4, 10, 1, 0, 5, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 513 {
			ops = ops[:513]
		}
		checkAlphaProgram(t, ops)
	})
}
