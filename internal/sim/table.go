package sim

import (
	"cmp"
	"iter"
	"slices"
)

// tablePage is 64 consecutive ids of a Table: page number pn holds ids
// pn*64 … pn*64+63, live marks the occupied slots.
type tablePage[T any] struct {
	pn    uint64
	live  uint64
	slots [64]*T
	next  *tablePage[T] // free-list link
}

// Table maps ids that the simulator issues in sequence (QPNs, channel ids,
// WR ids) to live objects by index arithmetic instead of hashing. Ids are
// grouped into pages of 64; page number id>>6 indexes a power-of-two ring of
// page pointers. The ring doubles only when two live pages would share a
// slot — a straggler still live when the ids have run a whole ring ahead —
// and an emptied page goes to a free list, so a table whose ids advance with
// every operation and are deleted behind allocates nothing once it has its
// ring. Memory follows the pages that hold live ids, not every id ever
// issued. The zero Table is empty and ready to use.
type Table[T any] struct {
	ring  []*tablePage[T] // len is a power of two; page pn sits at pn&(len-1)
	free  *tablePage[T]
	n     int // live entries
	pages int // pages in the ring
}

// tableRing0 is the ring's first size in pages.
const tableRing0 = 4

// Len reports the live entries.
func (t *Table[T]) Len() int { return t.n }

// page returns the ring slot for id's page and the page there if it is
// id's, else nil.
func (t *Table[T]) page(id uint64) (*tablePage[T], uint64) {
	if len(t.ring) == 0 {
		return nil, 0
	}
	pn := id >> 6
	s := pn & uint64(len(t.ring)-1)
	if p := t.ring[s]; p != nil && p.pn == pn {
		return p, s
	}
	return nil, s
}

// Get returns the object under id, nil if there is none.
func (t *Table[T]) Get(id uint64) *T {
	if p, _ := t.page(id); p != nil {
		return p.slots[id&63]
	}
	return nil
}

// Put files v under id, replacing what was there; v must not be nil.
func (t *Table[T]) Put(id uint64, v *T) {
	pn := id >> 6
	p, s := t.page(id)
	if p == nil {
		for len(t.ring) == 0 || t.ring[s] != nil {
			t.grow()
			s = pn & uint64(len(t.ring)-1)
		}
		if p = t.free; p != nil {
			t.free, p.next = p.next, nil
		} else {
			p = new(tablePage[T])
		}
		p.pn = pn
		t.ring[s] = p
		t.pages++
	}
	if bit := uint64(1) << (id & 63); p.live&bit == 0 {
		p.live |= bit
		t.n++
	}
	p.slots[id&63] = v
}

// grow doubles the ring (or makes the first one). Pages in distinct slots
// stay distinct under the wider mask, so only the page being added can still
// collide, and Put grows again until it does not.
func (t *Table[T]) grow() {
	ring := make([]*tablePage[T], max(tableRing0, 2*len(t.ring)))
	for _, p := range t.ring {
		if p != nil {
			ring[p.pn&uint64(len(ring)-1)] = p
		}
	}
	t.ring = ring
}

// Delete removes id's entry, if any; a page left empty goes to the free list.
func (t *Table[T]) Delete(id uint64) {
	p, s := t.page(id)
	bit := uint64(1) << (id & 63)
	if p == nil || p.live&bit == 0 {
		return
	}
	p.live &^= bit
	p.slots[id&63] = nil
	if t.n--; p.live == 0 {
		t.ring[s] = nil
		t.pages--
		p.next, t.free = t.free, p
	}
}

// Clear removes every entry and keeps the storage.
func (t *Table[T]) Clear() {
	for s, p := range t.ring {
		if p != nil {
			p.live, p.slots = 0, [64]*T{}
			t.ring[s] = nil
			p.next, t.free = t.free, p
		}
	}
	t.n, t.pages = 0, 0
}

// All walks the entries in ascending id order. An entry deleted during the
// walk is not reached; one added may or may not be.
func (t *Table[T]) All() iter.Seq2[uint64, *T] {
	return func(yield func(uint64, *T) bool) {
		type at struct {
			pn uint64
			p  *tablePage[T]
		}
		pages := make([]at, 0, t.pages)
		for _, p := range t.ring {
			if p != nil {
				pages = append(pages, at{p.pn, p})
			}
		}
		slices.SortFunc(pages, func(a, b at) int { return cmp.Compare(a.pn, b.pn) })
		for _, a := range pages {
			for i := uint64(0); i < 64; i++ {
				if a.p.pn != a.pn || a.p.live == 0 {
					break // emptied (and perhaps reused) by the walk
				}
				if a.p.live&(1<<i) != 0 && !yield(a.pn<<6|i, a.p.slots[i]) {
					return
				}
			}
		}
	}
}
