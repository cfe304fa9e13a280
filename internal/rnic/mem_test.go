package rnic

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// TestRegisterBacksNothing: a registration reserves address space and a key,
// not host memory; its bytes are made where a Slice first lands.
func TestRegisterBacksNothing(t *testing.T) {
	m := NewMemory()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mr := m.Register(4<<20, RegNonContinuous)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
		t.Errorf("registering 4 MiB raised HeapAlloc by %d bytes, want < 64 KiB", grew)
	}
	runtime.KeepAlive(mr)
}

// TestLandingMakesItsBytes: a frame header landing in a receive slot makes
// exactly its bytes, wherever the slot falls. The slots are 4,216 bytes apart
// (a 4 KiB message plus the middleware's header), so slot 4 starts off any
// 512 B boundary and slot 34 straddles a page edge. A whole message landing
// after it re-lays the slot as one run of exactly the slot's bytes.
func TestLandingMakesItsBytes(t *testing.T) {
	const slot = 4216
	for _, k := range []int{0, 1, 4, 34, 993} {
		mr := NewMemory().Register(4<<20, RegNonContinuous)
		off := k * slot
		mr.Slice(mr.Base+uint64(off), 64)
		if got := mr.Made(); got != 64 {
			t.Errorf("a 64 B landing in slot %d (+%d) made %d bytes, want 64", k, off, got)
		}
		mr.Slice(mr.Base+uint64(off), slot)
		if got := mr.Made(); got != slot {
			t.Errorf("slot %d filled: %d bytes made, want %d", k, got, slot)
		}
	}
}

// BenchmarkRecvSlotCycle is the receive cycle of a middleware pool: 592 B
// SENDs land FIFO in 62 posted 4,216 B slots of one MR, each reposted once
// consumed, and wrap around. After the first cycle every landing finds its
// slot's run (the one after the last hit), so it is gated in CI at exactly 0
// allocs/op; bytes/slot is the storage the MR made for each slot.
func BenchmarkRecvSlotCycle(b *testing.B) {
	const slots, slot, size = 62, 4216, 592
	r := newRig(b, DefaultConfig())
	mr := r.b.Mem.Register(slots*slot, RegNonContinuous)
	post := func(k int) {
		if err := r.qb.PostRecv(RecvWR{ID: uint64(k), Addr: mr.Base + uint64(k*slot), Len: slot}); err != nil {
			b.Fatal(err)
		}
	}
	for k := range slots {
		post(k)
	}
	payload := mkPattern(size)
	var wr SendWR
	var cqes []CQE
	land := func(i int) {
		wr = SendWR{ID: uint64(i), Op: OpSend, Len: size, Data: payload}
		if err := r.qa.PostSend(&wr); err != nil {
			b.Fatal(err)
		}
		r.eng.Run()
		cqes = r.qb.RecvCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK || cqes[0].WRID != uint64(i%slots) || !bytes.Equal(cqes[0].Data, payload) {
			b.Fatalf("landing %d: recv CQEs %+v", i, cqes)
		}
		post(i % slots)
		cqes = r.qa.SendCQ.PollAppend(cqes[:0], 4)
		if len(cqes) != 1 || cqes[0].Status != StatusOK {
			b.Fatalf("landing %d: send CQEs %+v", i, cqes)
		}
	}
	for i := range slots { // the first cycle makes each slot's run
		land(i)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		land(i)
	}
	b.ReportMetric(float64(mr.Made())/slots, "bytes/slot")
}

// mrOp is one step of a FuzzMRSlice program, six bytes: the op and its fill
// byte, the offset as a little-endian uint24 and the length as a uint16. A
// program starts with the region's size less one, a uint24.
const mrOpLen = 6

// mrProg encodes a FuzzMRSlice program over a size-byte region: each step is
// {op and fill byte, offset, length}.
func mrProg(size int, steps ...[3]int) []byte {
	p := []byte{byte(size - 1), byte((size - 1) >> 8), byte((size - 1) >> 16)}
	for _, s := range steps {
		p = append(p, byte(s[0]), byte(s[1]), byte(s[1]>>8), byte(s[1]>>16), byte(s[2]), byte(s[2]>>8))
	}
	return p
}

// u24 reads a little-endian uint24.
func u24(b []byte) int { return int(b[0]) | int(b[1])<<8 | int(b[2])<<16 }

// FuzzMRSlice runs generated write, read and hold programs through MR.Slice
// against a flat byte array. Every slice is exactly its range (capacity
// included), every read equals the array, untouched bytes read 0, and a
// slice held across later re-lays still reads what was written through it.
func FuzzMRSlice(f *testing.F) {
	f.Add(mrProg(12289, [3]int{0x02, 4096, 1024}, [3]int{0x01, 15, 32}, [3]int{0x03, 8192, 4096}, [3]int{0x01, 0, 12288}))
	f.Add(mrProg(32768, [3]int{0x07, 0, 16}, [3]int{0x0a, 8191, 8194}, [3]int{0x01, 12288, 0}, [3]int{0x70, 5, 20480}, [3]int{0x01, 0, 0}))
	// A 64 B header at +4216, then the same slot written 512 B long; read
	// over both.
	f.Add(mrProg(32768, [3]int{0x10, 4216, 64}, [3]int{0x11, 4216, 512}, [3]int{0x12, 4100, 1000}))
	// Two runs, at +1000 and +3000, joined by a read across the untouched
	// bytes between them.
	f.Add(mrProg(32768, [3]int{0x00, 1000, 10}, [3]int{0x01, 3000, 10}, [3]int{0x02, 1000, 2010}))
	// A slice held at +600, a run at +2000, and a read of [0, 3000) that
	// merges both while the first is held.
	f.Add(mrProg(32768, [3]int{0x23, 600, 100}, [3]int{0x04, 2000, 50}, [3]int{0x02, 0, 3000}))
	// Two abutting runs, read across in one slice: they merge.
	f.Add(mrProg(4096, [3]int{0x00, 1000, 100}, [3]int{0x05, 1100, 100}, [3]int{0x02, 1000, 200}, [3]int{0x0d, 1050, 100}))
	// A FIFO cycle of 592 B landings over 62 slots of 4,216 B that wraps:
	// slot 0 is found by search, slot 1 as the run after the last hit.
	const slot = 4216
	var cycle [][3]int
	for k := range 62 {
		cycle = append(cycle, [3]int{k << 2, k * slot, 592})
	}
	cycle = append(cycle, [3]int{0x41, 0, 592}, [3]int{0x45, slot, 592})
	f.Add(mrProg(62*slot, cycle...))
	// A 64 B header held in slot 1 while a read of the whole slot re-lays it,
	// then a frame written after the header into the new run.
	f.Add(mrProg(4*slot, [3]int{0x23, slot, 64}, [3]int{0x02, slot, slot}, [3]int{0x31, slot + 64, 592}, [3]int{0x02, slot, 1000}))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 3 {
			return
		}
		size := 1 + u24(prog)%(256<<10) // 256 KiB: 62 slots of 4,216 B
		prog = prog[3:min(len(prog), 3+64*mrOpLen)]
		mr := NewMemory().Register(size, RegNonContinuous)
		flat := make([]byte, size)
		type held struct {
			off  int
			s    []byte
			want []byte
		}
		var holds []held
		for ; len(prog) >= mrOpLen; prog = prog[mrOpLen:] {
			op, fill := prog[0]&3, prog[0]
			off := u24(prog[1:]) % size
			n := int(binary.LittleEndian.Uint16(prog[4:])) % (size - off + 1)
			overlaps := func(h held) bool { return h.off < off+n && off < h.off+len(h.s) }
			s := mr.Slice(mr.Base+uint64(off), n)
			if s == nil || len(s) != n || cap(s) != n {
				t.Fatalf("Slice(+%d, %d): nil %v, len %d, cap %d", off, n, s == nil, len(s), cap(s))
			}
			switch op {
			case 0, 1: // write, seen by every later slice
				for i := range s {
					s[i] = fill + byte(i)
				}
				copy(flat[off:], s)
				// A held slice that this write overlaps may or may not see it.
				holds = slices.DeleteFunc(holds, overlaps)
			case 2: // read
				if i := firstDiff(s, flat[off:]); i >= 0 {
					t.Fatalf("Slice(+%d, %d): byte +%d reads %#x, want %#x", off, n, off+i, s[i], flat[off+i])
				}
			case 3: // write, then hold the slice across the rest of the program
				for i := range s {
					s[i] = fill ^ byte(i)
				}
				copy(flat[off:], s)
				holds = append(slices.DeleteFunc(holds, overlaps), held{off, s, bytes.Clone(s)})
			}
		}
		for _, h := range holds {
			if !bytes.Equal(h.s, h.want) {
				t.Fatalf("a slice held at +%d no longer reads what was written through it", h.off)
			}
		}
		if all := mr.Slice(mr.Base, size); firstDiff(all, flat) >= 0 {
			i := firstDiff(all, flat)
			t.Fatalf("the whole region: byte +%d reads %#x, want %#x", i, all[i], flat[i])
		}
	})
}

// firstDiff is the index of the first of got's bytes that differs from want,
// or -1.
func firstDiff(got, want []byte) int {
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}
