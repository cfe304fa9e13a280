package sim

import "slices"

// FreeList recycles objects whose owner knows the one point where each one's
// last reference drops: Put there, Take instead of making a new one. Trim is
// optional (rnic and fabric have no idle tick and never call it): once per
// idle horizon it leaves to the collector what sat on the list the whole
// horizon (its low-water mark since the last Trim), so a burst does not pin
// its peak. Live − Free is what is out, which the conservation checks read.
// The zero FreeList is empty and ready to use.
type FreeList[T any] struct {
	free []T
	idle int // low-water mark of len(free) since the last Trim
	live int // made and not yet left to the collector: free or in use
}

// Take returns the object freed last, or a new one from mk, which the list
// counts live from here on.
func (f *FreeList[T]) Take(mk func() T) (x T) {
	n := len(f.free) - 1
	if n < 0 {
		f.live++
		return mk()
	}
	x, f.free[n] = f.free[n], x
	f.free = f.free[:n]
	f.idle = min(f.idle, n)
	return x
}

// Put gives back x, which its owner has reset and nothing else references.
func (f *FreeList[T]) Put(x T) { f.free = append(f.free, x) }

// Forfeit stops counting one object that will not come back: something the
// owner cannot see may still read it, so the collector takes it instead.
func (f *FreeList[T]) Forfeit() { f.live-- }

// Trim leaves to the collector all that sat free since the last Trim: the
// objects freed longest ago, so the survivors are the newest.
func (f *FreeList[T]) Trim() {
	n := f.idle
	f.free = slices.Delete(f.free, 0, n)
	f.live -= n
	f.idle = len(f.free)
}

// Free counts the objects on the list; Live those made and not yet left to
// the collector, on the list or in use; Items is the list, freed longest ago
// first (a view, for checks).
func (f *FreeList[T]) Free() int  { return len(f.free) }
func (f *FreeList[T]) Live() int  { return f.live }
func (f *FreeList[T]) Items() []T { return f.free }
