package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Spans are recorded from the driver's own files, around the synchronous
// calls into each layer. The nesting is round → sim.Run → harness.callback
// → xrdma.*.call; anything asynchronous lands in sim.Run self time and is
// apportioned by the ladder instead.
type spanID uint8

const (
	spRound spanID = iota
	spRun
	spCallback
	spSendMsg
	spReply
	spReadRemote
	spWriteRemote
	spConnect
	spClose
	spClusterNew
	numSpans
	spRoot = numSpans // parent of top-level spans
)

var spanNames = [numSpans + 1]string{
	"round", "sim.Run", "harness.callback",
	"xrdma.SendMsg.call", "xrdma.Reply.call", "xrdma.ReadRemote.call",
	"xrdma.WriteRemote.call", "xrdma.Connect.call", "xrdma.Close.call", "cluster.New.call", "",
}

// spanRec is one row of trace.json. Per-op spans are aggregated per round
// by (name, parent): Calls says how many calls the row covers, BusyNs is
// the sum of their durations, StartNs/EndNs bracket the first and last.
type spanRec struct {
	Trace   int    `json:"trace"` // round index; -1 is set-up
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns"`
	Calls   int64  `json:"calls"`
	Fired   uint64 `json:"fired"`   // Engine.Fired delta covered
	Mallocs uint64 `json:"mallocs"` // Mallocs delta; only on spans opened with beginM
}

type spanCell struct {
	calls, busy, first, last int64
	fired, mallocs           uint64
}

type spanFrame struct {
	id      spanID
	start   int64
	fired   uint64
	mallocs uint64
	withMem bool
}

// tracer aggregates spans in memory; nothing is written until exit. A nil
// tracer, or one that is switched off, records nothing, so the untraced
// rounds run the same driver code minus the clock reads.
type tracer struct {
	on    bool
	epoch time.Time
	fired func() uint64
	stack [8]spanFrame
	depth int
	cells [numSpans][numSpans + 1]spanCell
	total [numSpans][numSpans + 1]int64 // busy ns over all flushed rounds
	recs  []spanRec
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), fired: func() uint64 { return 0 }}
}

func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (t *tracer) begin(id spanID) {
	if t == nil || !t.on {
		return
	}
	t.stack[t.depth] = spanFrame{id: id, start: int64(time.Since(t.epoch)), fired: t.fired()}
	t.depth++
}

// beginM also covers the span with a Mallocs delta. ReadMemStats stops the
// world, so it is used once per round, never per op.
func (t *tracer) beginM(id spanID) {
	if t == nil || !t.on {
		return
	}
	m := mallocsNow()
	t.begin(id)
	f := &t.stack[t.depth-1]
	f.withMem, f.mallocs = true, m
}

func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	now := int64(time.Since(t.epoch))
	t.depth--
	f := &t.stack[t.depth]
	parent := spRoot
	if t.depth > 0 {
		parent = t.stack[t.depth-1].id
	}
	c := &t.cells[f.id][parent]
	if c.calls == 0 {
		c.first = f.start
	}
	c.calls++
	c.busy += now - f.start
	c.last = now
	c.fired += t.fired() - f.fired
	if f.withMem {
		c.mallocs += mallocsNow() - f.mallocs
	}
}

// flush turns the cells gathered since the last flush into one trace.
func (t *tracer) flush(trace int) {
	if t == nil {
		return
	}
	for id := range t.cells {
		for p := range t.cells[id] {
			c := &t.cells[id][p]
			if c.calls == 0 {
				continue
			}
			t.recs = append(t.recs, spanRec{
				Trace: trace, Name: spanNames[id], Parent: spanNames[p],
				StartNs: c.first, EndNs: c.last, BusyNs: c.busy, Calls: c.calls,
				Fired: c.fired, Mallocs: c.mallocs,
			})
			t.total[id][p] += c.busy
			*c = spanCell{}
		}
	}
}

// selfNs is a span's total duration minus the part its children cover.
func (t *tracer) selfNs(id spanID) int64 {
	var self int64
	for p := range t.total[id] {
		self += t.total[id][p]
	}
	for child := range t.total {
		self -= t.total[child][id]
	}
	return self
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []spanRec `json:"spans"`
	}{t.recs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
