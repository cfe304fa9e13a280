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

// TestHeaderLandingBacksAChunk: a frame header landing in a receive slot makes
// the mrChunk chunks it touches, not a 4 KiB page, wherever the slot falls.
// The slots are 4,216 bytes apart (a 4 KiB message plus the middleware's
// header), so the header in slot 4 straddles a chunk edge and the one in slot
// 34 a page edge too. A whole message landing after it re-lays the slot as
// one run: the chunks it spans, counted once.
func TestHeaderLandingBacksAChunk(t *testing.T) {
	const slot = 4216
	for _, k := range []int{0, 1, 4, 34, 993} {
		mr := NewMemory().Register(4<<20, RegNonContinuous)
		off := k * slot
		mr.Slice(mr.Base+uint64(off), 64)
		if got := backed(mr); got > 1<<10 {
			t.Errorf("a 64 B landing in slot %d (+%d) made %d bytes, want <= 1 KiB", k, off, got)
		}
		mr.Slice(mr.Base+uint64(off), slot)
		if got, want := backed(mr), (off+slot+mrChunk-1)/mrChunk*mrChunk-off/mrChunk*mrChunk; got != want {
			t.Errorf("slot %d filled: %d bytes made, want %d", k, got, want)
		}
	}
}

// backed is the storage mr has made: the bytes of its live runs.
func backed(mr *MR) (n int) {
	for _, r := range mr.runs {
		n += len(r.buf)
	}
	return n
}

// mrOp is one step of a FuzzMRSlice program, five bytes: the op and its fill
// byte, then the offset and the length as little-endian uint16s.
const mrOpLen = 5

// FuzzMRSlice runs generated write, read and hold programs through MR.Slice
// against a flat byte array. Every slice is exactly its range (capacity
// included), every read equals the array, untouched bytes read 0, and a
// slice held across later re-lays still reads what was written through it.
func FuzzMRSlice(f *testing.F) {
	f.Add([]byte{0x00, 0x30, 0x02, 0x00, 0x10, 0x00, 0x04, 0x01, 0x0f, 0x00, 0x20, 0x00, 0x03, 0x00, 0x20, 0x00, 0x10, 0x01, 0x00, 0x00, 0x00, 0x30})
	f.Add([]byte{0xff, 0x7f, 0x07, 0x00, 0x00, 0x10, 0x00, 0x0a, 0xff, 0x1f, 0x02, 0x20, 0x01, 0x00, 0x30, 0x00, 0x00, 0x70, 0x05, 0x80, 0x00, 0x50, 0x01, 0x00, 0x00, 0x00, 0x00, 0x80})
	// A 64 B header at +4216, then the same slot written 512 B long, across
	// the chunk edge at +4608; read over both.
	f.Add([]byte{0xff, 0x7f, 0x10, 0x78, 0x10, 0x40, 0x00, 0x11, 0x78, 0x10, 0x00, 0x02, 0x12, 0x04, 0x10, 0xe8, 0x03})
	// Two runs, at +1000 and +3000, joined by a read across the untouched
	// chunks between them.
	f.Add([]byte{0xff, 0x7f, 0x00, 0xe8, 0x03, 0x0a, 0x00, 0x01, 0xb8, 0x0b, 0x0a, 0x00, 0x02, 0xe8, 0x03, 0xda, 0x07})
	// A slice held at +600, a run at +2000, and a read of [0, 3000) that
	// merges both while the first is held.
	f.Add([]byte{0xff, 0x7f, 0x23, 0x58, 0x02, 0x64, 0x00, 0x04, 0xd0, 0x07, 0x32, 0x00, 0x02, 0x00, 0x00, 0xb8, 0x0b})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		size := 1 + int(binary.LittleEndian.Uint16(prog))%(32<<10) // 32 KiB: 64 chunks
		prog = prog[2:min(len(prog), 2+64*mrOpLen)]
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
			off := int(binary.LittleEndian.Uint16(prog[1:])) % size
			n := int(binary.LittleEndian.Uint16(prog[3:])) % (size - off + 1)
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
