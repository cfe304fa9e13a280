package sim

import (
	"slices"
	"testing"
)

// A queue driven against a plain slice model: same contents after any mix of
// pushes and pops, vacated slots zeroed, and storage that stops growing once
// it covers the peak backlog.
func TestQueueMatchesModel(t *testing.T) {
	var q Queue[*int]
	var model []*int
	rng := NewRNG(7)
	next := 0
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 && len(model) < 40:
			v := new(int)
			*v = next
			next++
			q.Push(v)
			model = append(model, v)
		case len(model) > 0:
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, *got, *model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) || !slices.Equal(q.Items(), model) {
			t.Fatalf("step %d: queue diverged from the model (%d vs %d queued)", step, q.Len(), len(model))
		}
		for i, p := range q.buf[:q.head] {
			if p != nil {
				t.Fatalf("step %d: popped slot %d still holds its element", step, i)
			}
		}
	}
	if cap(q.buf) > 160 {
		t.Fatalf("storage grew to %d slots for a backlog that never passed 40", cap(q.buf))
	}
}

// Reset empties the queue, zeroes every slot and keeps the storage.
func TestQueueReset(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 8; i++ {
		q.Push(new(int))
	}
	q.Pop()
	storage := q.buf[:cap(q.buf)]
	q.Reset()
	if q.Len() != 0 || len(q.Items()) != 0 || cap(q.buf) != len(storage) {
		t.Fatalf("after Reset: %d queued, capacity %d (was %d)", q.Len(), cap(q.buf), len(storage))
	}
	for i, p := range storage {
		if p != nil {
			t.Fatalf("slot %d still holds its element after Reset", i)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			q.Push(nil)
		}
		q.Reset()
	}); got != 0 {
		t.Fatalf("refilling a reset queue allocates %.1f per cycle", got)
	}
}

// The steady post-one/consume-one cycle never allocates.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	if got := testing.AllocsPerRun(1000, func() { q.Push(q.Pop()) }); got != 0 {
		t.Fatalf("push/pop cycle allocates %.1f per op", got)
	}
}

type listNode struct {
	v    int
	next *listNode
}

func (n *listNode) Link() **listNode { return &n.next }

// A list driven against a plain slice model: same contents, in order, after
// any mix of pushes, pops and removals (of members and of elements on no
// list); an element that leaves keeps no link into the list; and a cycle
// through a warmed list allocates nothing.
func TestListMatchesModel(t *testing.T) {
	var l List[listNode, *listNode]
	var model []*listNode
	rng := NewRNG(11)
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 && len(model) < 40:
			e := &listNode{v: step}
			l.Push(e)
			model = append(model, e)
		case r < 8 && len(model) > 0:
			if got := l.Pop(); got != model[0] || got.next != nil {
				t.Fatalf("step %d: Pop = %d (next %v), want %d", step, got.v, got.next, model[0].v)
			}
			model = model[1:]
		case len(model) > 0:
			i := rng.Intn(len(model))
			if e := model[i]; !l.Remove(e) || e.next != nil {
				t.Fatalf("step %d: Remove of queued element %d failed or kept its link", step, e.v)
			}
			model = slices.Delete(slices.Clone(model), i, i+1)
		default:
			if l.Remove(&listNode{v: -1}) {
				t.Fatalf("step %d: removed an element that was on no list", step)
			}
		}
		var got []*listNode
		for e := l.Head(); e != nil; e = e.next {
			got = append(got, e)
		}
		if l.Len() != len(model) || !slices.Equal(got, model) || len(model) > 0 && l.tail != model[len(model)-1] {
			t.Fatalf("step %d: list diverged from the model (%d vs %d queued)", step, l.Len(), len(model))
		}
	}
	for i := 0; i < 8; i++ {
		l.Push(&listNode{v: i})
	}
	if got := testing.AllocsPerRun(1000, func() { l.Push(l.Pop()) }); got != 0 {
		t.Fatalf("push/pop cycle allocates %.1f per op", got)
	}
}

type ringNode struct {
	v    int
	ring [2]*ringNode
}

func (n *ringNode) RingLink() *[2]*ringNode { return &n.ring }

// A ring driven against a plain slice model: same contents, in order, after
// any mix of pushes, removals (the oldest, the newest, any other) and swaps of
// a member for a fresh element; each element links back to the one before it;
// an element that leaves keeps no link into the ring; and a cycle through a
// warmed ring allocates nothing.
func TestRingMatchesModel(t *testing.T) {
	var r Ring[ringNode, *ringNode]
	var model []*ringNode
	rng := NewRNG(12)
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(10); {
		case k < 5 && len(model) < 40, len(model) == 0:
			e := &ringNode{v: step}
			r.Push(e)
			model = append(model, e)
		case k < 7:
			e := model[0]
			r.Swap(e, nil)
			if e.ring != [2]*ringNode{} {
				t.Fatalf("step %d: the oldest left with a link", step)
			}
			model = model[1:]
		case k < 9:
			i := rng.Intn(len(model))
			e := model[i]
			r.Swap(e, nil)
			if e.ring != [2]*ringNode{} {
				t.Fatalf("step %d: element %d left with a link", step, e.v)
			}
			model = slices.Delete(slices.Clone(model), i, i+1)
		default:
			i := rng.Intn(len(model))
			e, with := model[i], &ringNode{v: step}
			r.Swap(e, with)
			if e.ring != [2]*ringNode{} {
				t.Fatalf("step %d: swapped-out element %d kept its link", step, e.v)
			}
			model = slices.Clone(model)
			model[i] = with
		}
		var got []*ringNode
		for e := r.Oldest(); e != nil; e = r.Next(e) {
			got = append(got, e)
		}
		if !slices.Equal(got, model) || len(model) > 0 && r.Newest() != model[len(model)-1] || len(model) == 0 && r.Newest() != nil {
			t.Fatalf("step %d: ring diverged from the model (%d vs %d elements)", step, len(got), len(model))
		}
		for i, e := range got {
			if e.ring[0] != got[(i+len(got)-1)%len(got)] {
				t.Fatalf("step %d: element %d links back to the wrong one", step, e.v)
			}
		}
	}
	for r.Newest() != nil {
		r.Swap(r.Oldest(), nil)
	}
	for i := 0; i < 8; i++ {
		r.Push(&ringNode{v: i})
	}
	if got := testing.AllocsPerRun(1000, func() { e := r.Oldest(); r.Swap(e, nil); r.Push(e) }); got != 0 {
		t.Fatalf("push/remove cycle allocates %.1f per op", got)
	}
}
