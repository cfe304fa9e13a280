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

// List is an intrusive FIFO: each element holds the link to the next (P's
// Link addresses it), so queueing allocates nothing, and an element comes out
// of the middle without moving the others. An element is on one List at a
// time. The zero List is empty and ready to use.
type List[T any, P interface {
	*T
	Link() *P
}] struct {
	head, tail P
	n          int
}

// Len reports the queued elements.
func (l *List[T, P]) Len() int { return l.n }

// Head is the oldest element, nil when the list is empty; *e.Link() is the
// one after e.
func (l *List[T, P]) Head() P { return l.head }

// Push appends e.
func (l *List[T, P]) Push(e P) {
	if l.n++; l.tail == nil {
		l.head = e
	} else {
		*l.tail.Link() = e
	}
	l.tail = e
}

// Pop removes and returns the oldest element; the list must not be empty.
func (l *List[T, P]) Pop() P {
	e := l.head
	l.Remove(e)
	return e
}

// Remove takes e out, keeping the order of the rest, and reports whether it
// was on the list.
func (l *List[T, P]) Remove(e P) bool {
	var prev P
	at := &l.head
	for ; *at != e; prev, at = *at, (*at).Link() {
		if *at == nil {
			return false
		}
	}
	*at, *e.Link() = *e.Link(), nil
	if l.tail == e {
		l.tail = prev
	}
	l.n--
	return true
}
