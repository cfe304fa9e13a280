package telemetry

// Ring is a bounded overwrite-oldest ring buffer. Capacity is rounded
// up to a power of two and allocated once, so Push never grows the
// backing array: when full, the oldest element is dropped and counted. The
// zero Ring has capacity 0: it reads as empty and must not be pushed to.
type Ring[T any] struct {
	buf        []T
	head, tail uint64 // monotonic; live window is [head, tail)
}

// NewRing creates a ring holding at least capacity elements (rounded up
// to a power of two, minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{buf: make([]T, n)}
}

// Push appends v, overwriting the oldest element when full.
func (r *Ring[T]) Push(v T) {
	if r.tail-r.head == uint64(len(r.buf)) {
		r.head++
	}
	r.buf[r.tail&uint64(len(r.buf)-1)] = v
	r.tail++
}

// Len reports the number of live elements.
func (r *Ring[T]) Len() int { return int(r.tail - r.head) }

// Cap reports the fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Dropped reports how many elements were overwritten before being read.
func (r *Ring[T]) Dropped() uint64 { return r.head }

// At returns the i-th live element, 0 being the oldest.
func (r *Ring[T]) At(i int) T {
	return r.buf[(r.head+uint64(i))&uint64(len(r.buf)-1)]
}

// AppendTo appends the live elements to dst, oldest first.
func (r *Ring[T]) AppendTo(dst []T) []T {
	for i := r.head; i < r.tail; i++ {
		dst = append(dst, r.buf[i&uint64(len(r.buf)-1)])
	}
	return dst
}

// Snapshot returns the live elements oldest-first in a fresh slice.
func (r *Ring[T]) Snapshot() []T {
	if r.Len() == 0 {
		return nil
	}
	return r.AppendTo(make([]T, 0, r.Len()))
}

// Reset empties the ring without releasing the buffer.
func (r *Ring[T]) Reset() { r.head, r.tail = 0, 0 }
