package main

import "time"

// The sandbox this benchmark runs in is a few cores of a shared host, and
// the host's speed moves by tens of per cent in phases that last from
// seconds to minutes: whole runs land in a slow phase, so no statistic over
// the rounds of one run removes it. What removes it is a yardstick measured
// in the same phase. calibrator times a fixed kernel of the driver's own, a
// binary heap of 32 Ki keys popped and pushed calibOps times, which like
// the simulator is branchy and walks memory it does not stream, before every
// round. Host times are reported scaled to the speed at which one pass takes
// calibNominalUs, so host_us_per_op and setup_s read "µs on the reference
// host" whatever phase the run met. The kernel calls nothing outside this
// file: no change to the repository can move it.
const (
	calibKeys      = 1 << 15
	calibOps       = 8000
	calibNominalUs = 400.0 // one pass on the 2-core sandbox the benchmark was sized on
	calibWindow    = 2     // passes either side of a round that scale it: the host's speed moves within tens of ms
	calibSetup     = 8     // passes either side of a set-up, which is ten times a round
)

type calibrator struct {
	heap []uint64
	x    uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{heap: make([]uint64, 0, calibKeys), x: 0x9e3779b97f4a7c15}
	for len(c.heap) < calibKeys {
		c.push(c.next())
	}
	return c
}

// next is xorshift64: the keys are the same in every process.
func (c *calibrator) next() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

func (c *calibrator) push(v uint64) {
	h := append(c.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.heap = h
}

func (c *calibrator) pop() uint64 {
	h := c.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	c.heap = h
	return top
}

// pass runs the kernel once and returns its wall time in µs.
func (c *calibrator) pass() float64 {
	t0 := time.Now()
	for i := 0; i < calibOps; i++ {
		c.push(c.pop() + c.next()>>40)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// passes appends n passes to dst.
func (c *calibrator) passes(dst []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		dst = append(dst, c.pass())
	}
	return dst
}

// speed is the host's speed over the passes given, as a multiple of the
// reference host's: a host time multiplied by it is a time on the reference
// host. The median pass stands for them: one that an interrupt hit does not
// count.
func speed(passes []float64) float64 {
	return calibNominalUs / median(passes)
}
