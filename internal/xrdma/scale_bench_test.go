package xrdma

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"xrdma/internal/fabric"
)

// TestChannelStructBudget holds the sizes the 4000-node fit and the line
// ratchet's "nothing added to turn" rest on: the flyweight descriptor stays at
// or under 464 bytes (everything per-QP lives on link, everything per-message
// on msgRec), the link — riders included — at what the one-rider model
// reached, and Config at its field count. Raising one is a regression to
// explain, like a TestSteadyStateAllocs ceiling.
func TestChannelStructBudget(t *testing.T) {
	for _, b := range []struct {
		what      string
		got, most uintptr
	}{
		{"unsafe.Sizeof(Channel{})", unsafe.Sizeof(Channel{}), 464},
		{"unsafe.Sizeof(link{})", unsafe.Sizeof(link{}), 432},
		{"Config fields", uintptr(reflect.TypeOf(Config{}).NumField()), 38},
	} {
		t.Logf("%s = %d (budget %d)", b.what, b.got, b.most)
		if b.got > b.most {
			t.Errorf("%s = %d, budget %d", b.what, b.got, b.most)
		}
	}
}

// BenchmarkIdleChannelFootprint measures what one idle flyweight channel
// descriptor costs on the heap — the number the 4000-node fit depends on.
// ChannelTo allocates the descriptor and its registry slot but no QP, no
// window, no buffers and no gauges; bytes/conn is the end-to-end heap
// delta per descriptor including its share of the context's cid table.
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
