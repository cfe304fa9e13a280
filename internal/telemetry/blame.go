package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"xrdma/internal/sim"
)

// Stage identifies one segment of a blame-traced message's critical
// path. The order is the causal order of a request/response round
// trip; Chrome-trace child spans are laid out in this order inside the
// parent message span.
type Stage uint8

const (
	StageTxStall     Stage = iota // sender tx-window stall (middleware)
	StageSQWait                   // RNIC send-queue + flow-control wait
	StageSerialize                // RNIC pipeline + wire serialization
	StageFabricQueue              // per-switch egress-queue residency, both directions
	StagePFCPause                 // share of fabric residency under PFC pause (overlap)
	StageRTORecovery              // retransmit-timeout recovery
	StageRNRRecovery              // RNR-NAK backoff recovery
	StageReassembly               // receiver reassembly: first fragment → app dispatch
	StageHandler                  // responder app handler + reply staging
	StageReadFetch                // one-sided READ residency: issue → data landed locally
	StageWriteFlush               // one-sided WRITE residency: issue → remote placement acked
	StageResidual                 // propagation, acks, completion costs — unattributed
	StageCount
)

var stageNames = [StageCount]string{
	StageTxStall:     "tx.stall",
	StageSQWait:      "sq.wait",
	StageSerialize:   "serialize",
	StageFabricQueue: "fabric.queue",
	StagePFCPause:    "fabric.pfc",
	StageRTORecovery: "recover.rto",
	StageRNRRecovery: "recover.rnr",
	StageReassembly:  "reassembly",
	StageHandler:     "handler",
	StageReadFetch:   "read.fetch",
	StageWriteFlush:  "write.flush",
	StageResidual:    "residual",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// PktBlame is the in-band (INT-style) accumulator for one direction of
// a blame-sampled message. The sending middleware allocates it, every
// packet of the message references it, and fabric devices stamp
// residency into it only when the reference — the packet's trace bit —
// is set, so untraced packets never touch this code.
type PktBlame struct {
	Queue   sim.Duration // summed egress-queue wait across all hops
	Pause   sim.Duration // share of Queue spent under PFC pause
	ECN     int64        // packets ECN-marked in flight
	FirstAt sim.Time     // earliest first-fragment arrival at the receiving NIC
}

// BlameRec is one traced message's reconstructed critical path: the
// round-trip latency decomposed into causal stages.
type BlameRec struct {
	MsgID  uint64
	Node   int32 // requester node
	QPN    uint32
	Tenant uint16   // requesting channel's tenant id (0 = untenanted)
	At     sim.Time // request issue time
	RTT    sim.Duration
	Dur    [StageCount]sim.Duration
	ECN    int64 // ECN marks seen by this message's packets
}

// Top returns the most expensive attributed stage of this record
// (excluding the PFC overlap share and the unattributed residual).
func (r *BlameRec) Top() Stage {
	best, bestD := StageResidual, sim.Duration(-1)
	for s := Stage(0); s < StageCount; s++ {
		if s == StagePFCPause || s == StageResidual {
			continue
		}
		if r.Dur[s] > bestD {
			best, bestD = s, r.Dur[s]
		}
	}
	return best
}

// Blame aggregates stage-attributed latency across every traced
// message of one engine: per-stage log₂ latency histograms, no
// per-message records; the zero value is ready. Like the Registry it is
// engine-keyed and single-goroutine.
type Blame struct {
	stages [StageCount]histData
	rtt    histData
	ecn    int64

	// Tenant dimension: per-tenant RTT histograms, populated only by
	// records carrying a non-zero tenant id (zero-tenant runs never
	// allocate the map, keeping their digests byte-identical).
	tenants map[uint16]*histData
}

// Observe folds one reconstructed record into the aggregate. Stages
// with zero residency are not observed, so each stage histogram's
// count reads "messages that spent time here".
func (b *Blame) Observe(rec *BlameRec) {
	for s := Stage(0); s < StageCount; s++ {
		if d := rec.Dur[s]; d > 0 {
			b.stages[s].observe(int64(d))
		}
	}
	b.rtt.observe(int64(rec.RTT))
	b.ecn += rec.ECN
	if rec.Tenant != 0 {
		if b.tenants == nil {
			b.tenants = make(map[uint16]*histData)
		}
		h := b.tenants[rec.Tenant]
		if h == nil {
			h = &histData{}
			b.tenants[rec.Tenant] = h
		}
		h.observe(int64(rec.RTT))
	}
}

// TenantIDs reports the tenant ids observed so far, ascending.
func (b *Blame) TenantIDs() []uint16 {
	ids := make([]uint16, 0, len(b.tenants))
	for id := range b.tenants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Count reports how many messages were observed.
func (b *Blame) Count() int64 { return b.rtt.count }

// StageQuantile reports an upper bound for stage s's q-th percentile
// residency among messages that spent time in s.
func (b *Blame) StageQuantile(s Stage, q int64) sim.Duration {
	return sim.Duration(b.stages[s].quantile(q))
}

// Top names the stage with the largest total attributed residency —
// the blame verdict. The PFC share (an overlap of fabric.queue) and
// the residual (unattributed by definition) never win.
func (b *Blame) Top() (Stage, sim.Duration) {
	best, bestD := StageResidual, sim.Duration(-1)
	for s := Stage(0); s < StageCount; s++ {
		if s == StagePFCPause || s == StageResidual {
			continue
		}
		if d := sim.Duration(b.stages[s].sum); d > bestD {
			best, bestD = s, d
		}
	}
	if bestD <= 0 {
		return StageResidual, 0
	}
	return best, bestD
}

// share reports stage s's fraction of total round-trip time, percent.
func (b *Blame) share(s Stage) float64 {
	if b.rtt.sum == 0 {
		return 0
	}
	return float64(b.stages[s].sum) / float64(b.rtt.sum) * 100
}

// Table renders the blame report: every stage's message count, total
// residency, share of round-trip time and tail quantiles.
func (b *Blame) Table() string {
	var w strings.Builder
	fmt.Fprintf(&w, "blame report: %d messages, mean RTT %v, %d ECN marks\n",
		b.rtt.count, b.meanRTT(), b.ecn)
	fmt.Fprintf(&w, "%-14s %8s %14s %7s %12s %12s\n", "STAGE", "MSGS", "TOTAL", "SHARE%", "P50", "P99")
	for s := Stage(0); s < StageCount; s++ {
		h := &b.stages[s]
		fmt.Fprintf(&w, "%-14s %8d %14v %7.1f %12v %12v\n",
			s.String(), h.count, sim.Duration(h.sum), b.share(s),
			sim.Duration(h.quantile(50)), sim.Duration(h.quantile(99)))
	}
	top, total := b.Top()
	fmt.Fprintf(&w, "top blame: %s (%v, %.1f%% of round-trip time)\n", top, total, b.share(top))
	return w.String()
}

func (b *Blame) meanRTT() sim.Duration {
	if b.rtt.count == 0 {
		return 0
	}
	return sim.Duration(b.rtt.sum / b.rtt.count)
}

// Summary is the one-line verdict frozen into flight-recorder dumps.
func (b *Blame) Summary() string {
	if b.rtt.count == 0 {
		return "blame: no traced messages"
	}
	top, _ := b.Top()
	return fmt.Sprintf("blame: n=%d top=%s share=%.1f%% p99=%v mean-rtt=%v",
		b.rtt.count, top, b.share(top), b.StageQuantile(top, 99), b.meanRTT())
}

// Digest renders the aggregate as deterministic lines (integer
// nanosecond sums, no floats): the -j determinism fingerprint.
func (b *Blame) Digest() []string {
	out := make([]string, 0, StageCount+1)
	top, _ := b.Top()
	out = append(out, fmt.Sprintf("blame msgs=%d rtt_sum=%d ecn=%d top=%s",
		b.rtt.count, b.rtt.sum, b.ecn, top))
	for s := Stage(0); s < StageCount; s++ {
		h := &b.stages[s]
		out = append(out, fmt.Sprintf("stage %s count=%d sum=%d p99=%d",
			s.String(), h.count, h.sum, h.quantile(99)))
	}
	for _, id := range b.TenantIDs() {
		h := b.tenants[id]
		out = append(out, fmt.Sprintf("tenant %d count=%d rtt_sum=%d p99=%d",
			id, h.count, h.sum, h.quantile(99)))
	}
	return out
}

// WriteJSON emits the aggregate blame report as a JSON object for
// `reproduce -blame out.json`.
func (b *Blame) WriteJSON(w io.Writer) error {
	top, _ := b.Top()
	if _, err := fmt.Fprintf(w, `{"messages":%d,"rtt_sum_ns":%d,"ecn_marks":%d,"top":%q,"stages":[`,
		b.rtt.count, b.rtt.sum, b.ecn, top.String()); err != nil {
		return err
	}
	for s := Stage(0); s < StageCount; s++ {
		h := &b.stages[s]
		sep := ","
		if s == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, `%s{"stage":%q,"count":%d,"sum_ns":%d,"share_pct":%.2f,"p50_ns":%d,"p99_ns":%d}`,
			sep, s.String(), h.count, h.sum, b.share(s), h.quantile(50), h.quantile(99)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}

// EmitSpans lays one record out on the timeline as Chrome-trace spans:
// a parent "blame.msg" span covering the whole round trip, with one
// child span per non-zero stage tiled left-to-right inside it (the PFC
// share overlaps fabric.queue, so it is skipped to keep the tiling
// exact). Children are clamped to the parent so stage over-attribution
// (overlapping stages on a congested path) never escapes the span.
func (b *Blame) EmitSpans(tl *Timeline, track string, rec *BlameRec) {
	if !tl.Enabled() {
		return
	}
	tl.Complete("blame.msg", track, rec.At, rec.RTT, int64(rec.MsgID))
	end := rec.At.Add(rec.RTT)
	cursor := rec.At
	for s := Stage(0); s < StageCount; s++ {
		if s == StagePFCPause {
			continue
		}
		d := rec.Dur[s]
		if d <= 0 {
			continue
		}
		if cursor.Add(d) > end {
			d = end.Sub(cursor)
		}
		if d <= 0 {
			break
		}
		tl.Complete(s.String(), track, cursor, d, int64(rec.MsgID))
		cursor = cursor.Add(d)
	}
}
