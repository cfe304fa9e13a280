package sim

// Queue is a FIFO that reuses its storage. Pop advances a head index and
// zeroes the vacated slot — re-slicing the head off instead would leave the
// popped element reachable (pinned, and aliased once its owner recycles it)
// and walk the backing array forward, so that every Push reallocates — and
// Push compacts rather than grows once half the storage is dead. The zero
// Queue is empty and ready to use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Items is the live view of the queue, oldest first.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Reserve grows the storage once so that the next n pushes allocate nothing
// (a queue filled to a known depth, instead of doubling its way there).
func (q *Queue[T]) Reserve(n int) {
	if cap(q.buf)-len(q.buf) < n {
		q.buf = append(make([]T, 0, len(q.buf)+n), q.buf...)
	}
}

// Pop removes and returns the oldest element; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Reset empties the queue and keeps its storage; every slot is zeroed, so
// nothing that was queued stays reachable.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}

// Delete removes Items()[i], keeping the order of the rest.
func (q *Queue[T]) Delete(i int) {
	var zero T
	copy(q.buf[q.head+i:], q.buf[q.head+i+1:])
	q.buf[len(q.buf)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
}
