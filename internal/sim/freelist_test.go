package sim

import "testing"

// A free list hands back the object freed last, counts what it made, and
// Trim leaves to the collector all that sat free the whole period — the
// objects freed longest ago — however full the list was in between.
func TestFreeList(t *testing.T) {
	var f FreeList[*int]
	made := 0
	mk := func() *int { made++; return new(int) }
	a, b, c := f.Take(mk), f.Take(mk), f.Take(mk)
	if made != 3 || f.Live() != 3 || f.Free() != 0 {
		t.Fatalf("made %d, live %d, free %d; want 3, 3, 0", made, f.Live(), f.Free())
	}
	f.Put(a)
	f.Put(b)
	f.Put(c)
	if got := f.Take(mk); got != c || made != 3 {
		t.Fatalf("Take returned another object than the one freed last (made %d)", made)
	}
	f.Put(c)
	f.Trim() // the period began empty: nothing sat free all of it
	if f.Free() != 3 || f.Live() != 3 {
		t.Fatalf("first trim left %d free of %d live, want 3 of 3", f.Free(), f.Live())
	}
	x, y := f.Take(mk), f.Take(mk) // two taken and back: only a sat free all period
	f.Put(y)
	f.Put(x)
	f.Trim()
	if f.Free() != 2 || f.Live() != 2 || f.Take(mk) != c || f.Take(mk) != b {
		t.Fatalf("trim: %d free of %d live, or the survivors are not the newest", f.Free(), f.Live())
	}
	f.Put(b)
	f.Put(c)
	f.Trim() // the list ran empty this period: all of it stays
	if f.Free() != 2 || f.Live() != 2 {
		t.Fatalf("trim after an empty list left %d free of %d live, want 2 of 2", f.Free(), f.Live())
	}
	f.Trim()
	if f.Free() != 0 || f.Live() != 0 {
		t.Fatalf("two idle periods left %d free of %d live, want none", f.Free(), f.Live())
	}
	f.Forfeit()
	if f.Live() != -1 {
		t.Fatalf("Forfeit: live %d, want -1", f.Live())
	}
	f = FreeList[*int]{}
	for i := 0; i < 4; i++ {
		f.Put(new(int))
	}
	if got := testing.AllocsPerRun(1000, func() { f.Put(f.Take(mk)) }); got != 0 {
		t.Fatalf("take/put cycle allocates %.1f per op", got)
	}
}
