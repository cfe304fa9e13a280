package xrdma

import (
	"runtime"
	"testing"

	"xrdma/internal/fabric"
)

// BenchmarkIdleChannelFootprint measures what one idle flyweight channel
// descriptor costs on the heap — the number the 4000-node fit depends on.
// ChannelTo allocates the descriptor and its registry slot but no QP, no
// window, no buffers and no gauges; bytes/conn is the end-to-end heap
// delta per descriptor including its share of the context's cid map.
func BenchmarkIdleChannelFootprint(b *testing.B) {
	w := newWorld(b, 2, func(_ int, cfg *Config) {
		cfg.QPsPerPeer = 2
		cfg.ChannelGaugeLimit = 8
	})
	ctx := w.ctxs[0]
	chans := make([]*Channel, 0, b.N)

	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := ctx.ChannelTo(fabric.NodeID(1), 7000)
		if err != nil {
			b.Fatal(err)
		}
		chans = append(chans, ch)
	}
	b.StopTimer()

	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(b.N), "bytes/conn")
	} else {
		b.ReportMetric(0, "bytes/conn")
	}
	runtime.KeepAlive(chans)
}
