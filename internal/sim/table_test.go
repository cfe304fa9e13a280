package sim

import (
	"maps"
	"slices"
	"testing"
)

// A table driven against a Go map: ids issued in sequence, most deleted soon
// after, a few stragglers living 10,000 ids on so that the ring has to
// double; random probes of ids live, dead and never issued. Get, Len and the
// ascending All walk must match the map, and the ring must hold exactly the
// pages of live ids; Clear must leave a table that refills the same way.
func TestTableMatchesMap(t *testing.T) {
	var tab Table[int]
	model := map[uint64]*int{}
	rng := NewRNG(39)
	var next uint64
	var live []uint64 // ids in the model, in issue order
	check := func(step int) {
		t.Helper()
		if tab.Len() != len(model) {
			t.Fatalf("step %d: Len %d, map holds %d", step, tab.Len(), len(model))
		}
		want := slices.Sorted(maps.Keys(model))
		var got []uint64
		for id, v := range tab.All() {
			if v != model[id] {
				t.Fatalf("step %d: All yields the wrong object for id %d", step, id)
			}
			got = append(got, id)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: All walked %d ids, want %d in ascending order", step, len(got), len(want))
		}
		pages := map[uint64]bool{}
		for id := range model {
			pages[id>>6] = true
		}
		if tab.pages != len(pages) {
			t.Fatalf("step %d: %d pages in the ring for live ids on %d", step, tab.pages, len(pages))
		}
	}
	var stragglers []uint64 // ids kept live for 10,000 issues: the ring must span them
	grew := 0
	for round := 0; round < 2; round++ {
		for step := 0; step < 40000; step++ {
			switch r := rng.Intn(100); {
			case r < 45: // issue the next id
				v := new(int)
				*v = int(next)
				tab.Put(next, v)
				model[next] = v
				live = append(live, next)
				next++
			case r < 50 && len(live) > 0: // replace a live entry
				id := live[rng.Intn(len(live))]
				v := new(int)
				tab.Put(id, v)
				model[id] = v
			case r < 51 && len(live) > 0: // an old id becomes a straggler
				stragglers = append(stragglers, live[0])
				live = live[1:]
			case r < 92 && len(live) > 0: // retire one of the oldest ids
				i := rng.Intn(min(len(live), 64))
				tab.Delete(live[i])
				delete(model, live[i])
				live = slices.Delete(live, i, i+1)
			default: // probe live, dead and unissued ids, and delete a dead one
				id := rng.Uint64() % (next + 200)
				if got := tab.Get(id); got != model[id] {
					t.Fatalf("step %d: Get(%d) = %v, map holds %v", step, id, got, model[id])
				}
				if model[id] == nil {
					tab.Delete(id)
				}
			}
			for len(stragglers) > 0 && next-stragglers[0] > 10000 {
				tab.Delete(stragglers[0])
				delete(model, stragglers[0])
				stragglers = stragglers[1:]
			}
			for _, id := range live[:min(len(live), 4)] {
				if tab.Get(id) != model[id] {
					t.Fatalf("step %d: Get(%d) lost its object", step, id)
				}
			}
			if step%97 == 0 {
				check(step)
			}
			grew = max(grew, len(tab.ring))
		}
		check(-1)
		tab.Clear()
		clear(model)
		live, stragglers = live[:0], stragglers[:0]
		check(-2)
		for id := range next + 100 {
			if tab.Get(id) != nil {
				t.Fatalf("Get(%d) after Clear = non-nil", id)
			}
		}
	}
	if grew <= tableRing0 {
		t.Fatalf("the stragglers never made the ring double (ring %d pages)", grew)
	}
	t.Logf("%d ids issued, ring reached %d pages, %d pages in use at the end", next, grew, tab.pages)
}

// Deleting an entry while All walks the table: the walk does not yield it.
func TestTableAllSkipsDeleted(t *testing.T) {
	var tab Table[int]
	for id := uint64(0); id < 200; id++ {
		tab.Put(id, new(int))
	}
	var got []uint64
	for id := range tab.All() {
		got = append(got, id)
		if id%64 == 0 {
			for d := id + 1; d < id+64; d++ {
				tab.Delete(d)
			}
		}
	}
	if want := []uint64{0, 64, 128, 192}; !slices.Equal(got, want) {
		t.Fatalf("walk with deletes yielded %v, want %v", got, want)
	}
}

// Ids that advance with every operation, each deleted 48 operations on,
// allocate nothing once the ring is made: emptied pages come back from the
// free list.
func TestTableChurnAllocs(t *testing.T) {
	var tab Table[int]
	v := new(int)
	next := uint64(0)
	churn := func() {
		for range 64 {
			tab.Put(next, v)
			if next >= 48 {
				tab.Delete(next - 48)
			}
			next++
		}
	}
	churn()
	if got := testing.AllocsPerRun(100, churn); got != 0 {
		t.Fatalf("64 ids of churn allocate %.2f times", got)
	}
}

// BenchmarkTableChurn is the WR-id table's steady state: every op issues the
// next id and retires the one issued 48 ops ago, so pages fill, empty and come
// back from the free list. Contract: 0 allocs/op.
func BenchmarkTableChurn(b *testing.B) {
	var tab Table[int]
	v := new(int)
	const window = 48
	for id := uint64(0); id < window; id++ {
		tab.Put(id, v)
	}
	next := uint64(window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Put(next, v)
		if tab.Get(next-window) != v {
			b.Fatal("lost an entry")
		}
		tab.Delete(next - window)
		next++
	}
}
