package rnic

import (
	"fmt"
	"slices"
	"testing"
)

// runRQProgram drives one receive queue with a generated program and logs what
// each step returned and the length after it: the SRQ (shared), a QP's own
// RQ, or, with ref, a flat slice of every posted WR, which honors the limit
// only when shared. The first byte sets the depth; each step after it is an op
// byte and an argument byte. A post's first WR continues the last one tried
// (ID+1, Addr+Len) unless the op byte's high bits break its ID, Addr or Len.
func runRQProgram(t *testing.T, prog []byte, shared, ref bool) []string {
	depth := 1 + int(prog[0])%16
	var (
		srq     *SRQ
		qp      *QP
		flat    []RecvWR
		limit   int
		out     []string
		consume int
	)
	onLimit := func() { out = append(out, fmt.Sprintf("limit fired at consume %d", consume)) }
	reset := func() {} // back to INIT for the QP: RESET empties it, and it takes posts from INIT on
	switch {
	case ref:
	case shared:
		srq = NewSRQ(depth)
	default:
		n, _ := cacheNIC(t, 4, 0)
		qp = n.AllocQPNow(4, depth, NewCQ(8), NewCQ(8), nil)
		reset = func() {
			if n.ModifyQPNow(qp, QPReset, 0, 0) != nil || n.ModifyQPNow(qp, QPInit, 0, 0) != nil {
				t.Fatal("RESET → INIT refused")
			}
		}
		reset()
	}
	post := func(first RecvWR, n int) error {
		switch {
		case srq != nil && n == 1:
			return srq.Post(first)
		case srq != nil:
			return srq.PostRun(first, n)
		case qp != nil && n == 1:
			return qp.PostRecv(first)
		case qp != nil:
			return qp.PostRecvRun(first, n)
		case n < 1 || len(flat)+n > depth:
			return ErrRQFull
		}
		for i := 0; i < n; i++ {
			flat = append(flat, RecvWR{ID: first.ID + uint64(i), Addr: first.Addr + uint64(i*first.Len), Len: first.Len})
		}
		return nil
	}
	take := func() (wr RecvWR, ok bool) {
		switch {
		case srq != nil:
			wr, ok = srq.take()
		case qp != nil:
			wr, ok = qp.takeRecv()
		case len(flat) > 0:
			wr, ok, flat = flat[0], true, flat[1:]
			if shared && len(flat) < limit {
				limit = 0
				onLimit()
			}
		}
		return wr, ok
	}
	length := func() int {
		switch {
		case srq != nil:
			return srq.Len()
		case qp != nil:
			return qp.RecvQueueLen()
		}
		return len(flat)
	}
	next := RecvWR{ID: 1 << 40, Addr: 0x10000, Len: 64}
	for prog = prog[1:]; len(prog) >= 2; prog = prog[2:] {
		op, arg := prog[0], int(prog[1])
		switch kind := (op & 7) % 6; kind {
		case 0, 1: // a single post, or a run of 0..8
			n := 1
			if kind == 1 {
				n = arg % 9
			}
			first := next
			if op&0x08 != 0 {
				first.ID += 1 + uint64(arg>>4)
			}
			if op&0x10 != 0 {
				first.Addr += 1 + uint64(arg>>4)*64
			}
			if op&0x20 != 0 {
				first.Len = (first.Len + 64) % 256
			}
			err := post(first, n)
			next = RecvWR{ID: first.ID + uint64(n), Addr: first.Addr + uint64(n*first.Len), Len: first.Len}
			out = append(out, fmt.Sprintf("post %d from %+v: refused %v", n, first, err != nil))
		case 2, 3: // one take, or up to five
			for i := 0; i < 1+(arg%5)*int(kind-2); i++ {
				consume++
				wr, ok := take()
				out = append(out, fmt.Sprintf("take %d: %+v %v", consume, wr, ok))
			}
		case 4:
			switch {
			case srq != nil:
				srq.Flush()
			case qp != nil:
				reset()
			default:
				flat, limit = flat[:0], 0
			}
			out = append(out, "reset")
		case 5: // arm the SRQ's limit, 0 disarms; a QP has none
			if srq != nil {
				srq.Arm(arg%8, onLimit)
			} else if ref && shared {
				limit = arg % 8
			}
			out = append(out, fmt.Sprintf("arm %d", arg%8))
		}
		out = append(out, fmt.Sprintf("len %d", length()))
	}
	return out
}

// FuzzRecvQueue runs generated programs of single posts, run posts, takes,
// resets, refusals past the depth and an armed limit through the SRQ and a
// QP's own receive queue, each against a flat slice of every WR posted: the
// same WRs must come out in the same order, every post must be taken or
// refused alike, the lengths must agree, and the SRQ's limit must fire at the
// same consume.
func FuzzRecvQueue(f *testing.F) {
	// A run of 5, two taken, three single reposts that continue it, all taken.
	f.Add([]byte{0x0b, 0x01, 0x05, 0x02, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x04, 0x03, 0x04})
	// Posts that break the ID, the Addr and the Len in turn, one past the depth.
	f.Add([]byte{0x03, 0x00, 0x00, 0x08, 0x10, 0x10, 0x10, 0x20, 0x00, 0x20, 0x00, 0x03, 0x04})
	// A Len broken alone: ID and Addr continue the run.
	f.Add([]byte{0x07, 0x01, 0x02, 0x20, 0x00, 0x03, 0x04})
	// Two runs, the first spent, and a third that compacts the storage under
	// the live second.
	f.Add([]byte{0x0f, 0x01, 0x02, 0x09, 0x02, 0x03, 0x01, 0x09, 0x02, 0x03, 0x04})
	// An armed limit crossed by a consume, re-armed below it, flushed mid-run.
	f.Add([]byte{0x0f, 0x01, 0x08, 0x05, 0x05, 0x03, 0x03, 0x05, 0x02, 0x02, 0x00, 0x04, 0x00, 0x01, 0x06, 0x05, 0x04, 0x03, 0x04})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		prog = prog[:min(len(prog), 1+2*256)]
		for _, shared := range []bool{true, false} {
			got, want := runRQProgram(t, prog, shared, false), runRQProgram(t, prog, shared, true)
			if !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("shared=%v, step %d: queue %q, reference %q", shared, i, at(got, i), at(want, i))
			}
		}
	})
}

// at is s[i], or "(end)" past it.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(end)"
}
