package sim

import "testing"

// BenchmarkEngineSchedule measures the steady-state schedule→fire cycle:
// a fixed-size event population where every fired event schedules its
// successor. This is the kernel's hot path — every packet hop, timer and
// completion in the simulator goes through exactly this cycle.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			e := NewEngine()
			var tick func()
			tick = func() { e.After(100, tick) }
			for i := 0; i < depth; i++ {
				e.After(Duration(i), tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkEngineChurn measures the schedule+cancel pattern that dominates
// timer-heavy models (RTO re-arming, ack coalescing): each iteration
// schedules two events, cancels one, and fires the other.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	// A standing population so cancels hit mid-heap, not the root.
	for i := 0; i < 64; i++ {
		e.After(Duration(1_000_000+i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep := e.After(10, func() {})
		drop := e.After(500, func() {})
		e.Cancel(drop)
		_ = keep
		e.Step()
	}
}

// BenchmarkEngineTimers is the queue a simulated fleet keeps: 16 contexts'
// three periodic scans (48 background timers, 100 µs and more ahead, in the
// heap), 8 packet-rate work events 1 µs apart, and, on every work event, one
// per-message timer armed 60 µs ahead and an older one cancelled — the
// parked-poll pattern, inside the horizon, so on the ring.
func BenchmarkEngineTimers(b *testing.B) {
	e := NewEngine()
	var scan func()
	scan = func() { e.AfterBg(100*Microsecond, scan) }
	for i := 0; i < 48; i++ {
		e.AfterBg(100*Microsecond+Duration(i)*2*Microsecond, scan)
	}
	var timers [8]Event
	k := 0
	nop := func() {}
	var work func()
	work = func() {
		e.After(Microsecond, work)
		e.Cancel(timers[k%len(timers)])
		timers[k%len(timers)] = e.After(60*Microsecond, nop)
		k++
	}
	for i := 0; i < len(timers); i++ {
		e.After(Duration(i)*Microsecond/8, work)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineNear is peak's standing queue (EXPERIMENTS.md P10): about
// 93 events due within horizon — packet hops, NIC steps and polls, each
// scheduling its successor from under 100 ns to 4 µs ahead — over 66 far
// timers re-armed 100 µs and more ahead. Nearly every step pops and pushes
// on the ring.
func BenchmarkEngineNear(b *testing.B) {
	e := NewEngine()
	var scan func()
	scan = func() { e.AfterBg(100*Microsecond, scan) }
	for i := 0; i < 66; i++ {
		e.AfterBg(100*Microsecond+Duration(i)*1500, scan)
	}
	delays := [...]Duration{300, 1100, 650, 2400, 90, 4100, 800, 1700}
	k := 0
	var hop func()
	hop = func() {
		e.After(delays[k%len(delays)], hop)
		k++
	}
	for i := 0; i < 93; i++ {
		e.After(Duration(i)*40, hop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEnginePaced is incast_128K's queue: 16 DCQCN-paced senders, each
// re-arming its next step 5–64 µs ahead; on every step one parked poll armed
// 64 µs ahead and the one before it cancelled; and 48 background scans
// re-armed 500 µs ahead, past the horizon. Everything but the scans is on
// the ring.
func BenchmarkEnginePaced(b *testing.B) {
	e := NewEngine()
	var scan func()
	scan = func() { e.AfterBg(500*Microsecond, scan) }
	for i := 0; i < 48; i++ {
		e.AfterBg(500*Microsecond+Duration(i)*10*Microsecond, scan)
	}
	delays := [...]Duration{5000, 23_100, 41_700, 63_900, 12_300, 57_050, 8_800, 33_300}
	var poll Event
	nop := func() {}
	k := 0
	var step func()
	step = func() {
		e.After(delays[k%len(delays)], step)
		e.Cancel(poll)
		poll = e.After(64*Microsecond, nop)
		k++
	}
	for i := 0; i < 16; i++ {
		e.After(Duration(i)*Microsecond, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func benchName(k string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return k + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return k + "=" + string(buf[i:])
}
