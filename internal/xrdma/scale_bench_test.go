package xrdma

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// TestChannelStructBudget holds the sizes the 4000-node fit and the line
// ratchet's "nothing added to turn" rest on: the flyweight descriptor stays at
// or under 448 bytes (everything per-QP lives on link, everything per-message
// on msgRec), the link — riders included — at what the one-rider model
// reached, the delivered Msg in the 160 B size class with its inline payload
// array, and Config at its field count. Raising one is a regression to
// explain, like a TestSteadyStateAllocs ceiling.
func TestChannelStructBudget(t *testing.T) {
	for _, b := range []struct {
		what      string
		got, most uintptr
	}{
		{"unsafe.Sizeof(Channel{})", unsafe.Sizeof(Channel{}), 448},
		{"unsafe.Sizeof(link{})", unsafe.Sizeof(link{}), 408},
		{"unsafe.Sizeof(Msg{})", unsafe.Sizeof(Msg{}), 160},
		{"Config fields", uintptr(reflect.TypeOf(Config{}).NumField()), 32},
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

// BenchmarkAttachedChannelFootprint is the same number for channels that were
// used: b.N mux channels each attach, carry one request/response and go quiet
// for two trim horizons. A quiet channel holds no window slots and no waiter
// map, and the context's free lists give back what the burst left, so it
// costs its handle again. Both ends live in this heap: bytes/conn is the heap
// delta per channel end — what one host pays per connection — over a first
// channel that made the shared QPs, their pools and the memory regions.
func BenchmarkAttachedChannelFootprint(b *testing.B) {
	w := newWorld(b, 2, func(_ int, cfg *Config) {
		cfg.QPsPerPeer = 2
		cfg.ChannelGaugeLimit = 8
	})
	w.ctxs[1].OnChannel(echoServer)
	if err := w.ctxs[1].Listen(7000); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	open := func(n int) []*Channel {
		chans := make([]*Channel, 0, n)
		for range n {
			w.ctxs[0].Connect(fabric.NodeID(1), 7000, func(ch *Channel, err error) {
				if err != nil {
					b.Fatal(err)
				}
				chans = append(chans, ch)
				ch.SendMsg(payload, 0, func(_ *Msg, err error) {
					if err != nil {
						b.Error(err)
					}
				})
			})
		}
		w.eng.RunFor(2*memShrinkIdle + sim.Millisecond)
		if len(chans) != n {
			b.Fatalf("%d of %d channels attached", len(chans), n)
		}
		return chans
	}
	open(1)

	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	b.ReportAllocs()
	b.ResetTimer()
	chans := open(b.N)
	b.StopTimer()

	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	for _, ch := range chans {
		if ch.win.slots != nil || ch.pending != nil || ch.Counters.RespsRecv != 1 {
			b.Fatal("a quiet channel holds window slots or a waiter map, or got no response")
		}
	}
	b.ReportMetric(max(float64(after.HeapAlloc)-float64(before.HeapAlloc), 0)/float64(2*b.N), "bytes/conn")
	runtime.KeepAlive(chans)
}
