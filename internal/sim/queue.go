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

// Ring is an intrusive FIFO held by one word, its newest element. Each element
// links to the ones pushed before and after it (P's RingLink: older, newer),
// and the newest links round to the oldest, so queueing allocates nothing, an
// element leaves from anywhere in one step, and an empty Ring costs a pointer.
// An element is on one Ring at a time, and may be on a List besides. The zero
// Ring is empty and ready to use.
type Ring[T any, P interface {
	*T
	RingLink() *[2]P
}] struct {
	last P
}

// Newest is the element pushed last, nil when the ring is empty.
func (r *Ring[T, P]) Newest() P { return r.last }

// Oldest is the element pushed first, nil when the ring is empty.
func (r *Ring[T, P]) Oldest() P {
	if r.last == nil {
		return nil
	}
	return r.last.RingLink()[1]
}

// Next is the element pushed after e, nil after the newest.
func (r *Ring[T, P]) Next(e P) P {
	if e == r.last {
		return nil
	}
	return e.RingLink()[1]
}

// Push appends e.
func (r *Ring[T, P]) Push(e P) {
	if r.last == nil {
		*e.RingLink() = [2]P{e, e}
	} else {
		first := r.last.RingLink()[1]
		*e.RingLink() = [2]P{r.last, first}
		r.last.RingLink()[1], first.RingLink()[0] = e, e
	}
	r.last = e
}

// Swap puts with in e's place, or, with nil, takes e out; e must be on the
// ring, and leaves it with no links.
func (r *Ring[T, P]) Swap(e, with P) {
	lk := e.RingLink()
	prev, next := lk[0], lk[1]
	*lk = [2]P{}
	switch {
	case prev == e: // alone, so the newest
		if with != nil {
			*with.RingLink() = [2]P{with, with}
		}
		r.last = with
		return
	case with == nil:
		prev.RingLink()[1], next.RingLink()[0] = next, prev
		with = prev
	default:
		*with.RingLink() = [2]P{prev, next}
		prev.RingLink()[1], next.RingLink()[0] = with, with
	}
	if r.last == e {
		r.last = with
	}
}
