package rnic

import (
	"errors"
	"fmt"
	"math"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// QPState is the RC queue-pair state machine (a subset: the states the
// middleware actually drives through).
type QPState uint8

const (
	QPReset QPState = iota
	QPInit
	QPRTR // ready to receive
	QPRTS // ready to send
	QPError
)

func (s QPState) String() string {
	return [...]string{"RESET", "INIT", "RTR", "RTS", "ERROR"}[s]
}

// Status is a completion status.
type Status uint8

const (
	StatusOK Status = iota
	StatusRetryExceeded
	StatusRNRRetryExceeded
	StatusRemoteAccessErr
	StatusFlushed // QP torn down with the WR outstanding
)

func (s Status) String() string {
	return [...]string{"OK", "RETRY_EXC", "RNR_RETRY_EXC", "REM_ACCESS_ERR", "FLUSHED"}[s]
}

// CQE is a completion queue entry.
type CQE struct {
	WRID   uint64
	QPN    uint32
	Op     Op
	Status Status
	Len    int
	Imm    uint32
	HasImm bool
	// Recv-side: where the message landed.
	Addr uint64
	// Data is the payload when one was carried: the range of registered
	// memory it landed in (a posted receive buffer, a READ's Local) — the
	// poster's own memory, valid until it reposts or reuses it — or a
	// private buffer when the work request named none.
	Data []byte
	// Blame carries the blame-trace accumulator of a traced inbound
	// message up to the middleware (nil otherwise).
	Blame *telemetry.PktBlame
}

// CQ is a completion queue. Depth is advisory: overflow is counted rather
// than fatal (real CQ overflow kills the QP; the middleware sizes CQs so
// it never happens, and the counter proves it). Entries live in a circular
// buffer, so steady-state push/poll cycles never allocate.
//
// An entry carries the instant it becomes visible, the one DMA latency
// after the NIC finishes, as a reserved engine key, and goes in at once,
// in (visible-at, push) order: PollAppend and Len see only the entries
// whose key the engine has reached, so a poll orders against a completion
// at the same instant exactly as an event at that key would.
type CQ struct {
	Depth     int
	Overflows int64
	buf       []cqSlot
	head, cnt int
	eng       *sim.Engine
	notify    func(at sim.Time)
	visible   func()
	visibleFn func()
}

type cqSlot struct {
	key sim.Key
	cqe CQE
}

// NewCQ creates a completion queue with the given depth.
func NewCQ(depth int) *CQ { return &CQ{Depth: depth} }

// OnCompletionAt installs the stamped wakeup: fn runs when an entry is
// pushed that becomes the earliest one held while none is visible, with the
// instant it becomes visible (now, for a flush), and from PollAppend for the
// new earliest entry when a poll drains every visible one and some are still
// pending. A consumer turns the instant into its own schedule; the CQ fires
// no event.
func (cq *CQ) OnCompletionAt(fn func(at sim.Time)) { cq.notify = fn }

// OnCompletion installs the comp-channel wakeup: fn runs at the instant a
// completion makes an empty queue non-empty. It costs one engine event per
// pending completion, scheduled right after the completion's key, so fn
// runs where an event at that key would, also against same-instant events.
func (cq *CQ) OnCompletion(fn func()) { cq.visible, cq.visibleFn = fn, cq.becameVisible }

func (cq *CQ) slot(i int) *cqSlot { return &cq.buf[(cq.head+i)&(len(cq.buf)-1)] }

// push inserts *e at key k behind every entry ordered at or before it: a tail
// append, unless QPs sharing the queue differ in completion cost. The entry
// is copied into its slot.
func (cq *CQ) push(k sim.Key, e *CQE) {
	if cq.Depth > 0 && cq.cnt >= cq.Depth {
		cq.Overflows++
	}
	if cq.cnt == len(cq.buf) {
		cq.grow()
	}
	i := cq.cnt
	for ; i > 0 && k.Before(cq.slot(i-1).key); i-- {
		*cq.slot(i) = *cq.slot(i - 1)
	}
	s := cq.slot(i)
	s.key, s.cqe = k, *e
	cq.cnt++
	switch {
	case cq.visible != nil && !cq.eng.Reached(k):
		cq.eng.At(k.At, cq.visibleFn) // the next key: it orders as k does
	case i > 0: // an entry ahead of it is visible or wakes first
	case cq.visible != nil:
		cq.visible()
	case cq.notify != nil:
		cq.notify(k.At)
	}
}

// becameVisible is a pending completion's event under OnCompletion: the
// wakeup runs when that completion is the only one visible.
func (cq *CQ) becameVisible() {
	if cq.Len() == 1 {
		cq.visible()
	}
}

func (cq *CQ) grow() {
	n := len(cq.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]cqSlot, n)
	for i := 0; i < cq.cnt; i++ {
		nb[i] = *cq.slot(i)
	}
	cq.buf, cq.head = nb, 0
}

// PollAppend drains up to max visible completions into dst and returns the
// extended slice. Passing a reused dst[:0] makes polling allocation-free;
// a vacated ring slot drops its payload and blame references, so neither
// lingers (the rest of it is overwritten when the slot is next pushed).
func (cq *CQ) PollAppend(dst []CQE, max int) []CQE {
	if cq.cnt == 0 {
		return dst
	}
	return cq.PollAppendAt(dst, max, cq.eng.Current())
}

// PollAppendAt is PollAppend for a poller that orders at key k, at the
// current instant but later than the event now firing: it also sees the
// completions ordered before k.
func (cq *CQ) PollAppendAt(dst []CQE, max int, k sim.Key) []CQE {
	n := 0
	for ; n < max && cq.cnt > 0 && !k.Before(cq.slot(0).key); n++ {
		s := cq.slot(0)
		dst = append(dst, s.cqe)
		s.cqe.Data, s.cqe.Blame = nil, nil
		cq.head++
		cq.cnt--
	}
	if n > 0 && cq.cnt > 0 && cq.notify != nil && !cq.eng.Reached(cq.slot(0).key) {
		cq.notify(cq.slot(0).key.At)
	}
	return dst
}

// Poll removes up to n visible completions. Convenience wrapper around
// PollAppend that allocates the result; hot paths should use PollAppend
// directly.
func (cq *CQ) Poll(n int) []CQE {
	if n = min(n, cq.Len()); n == 0 {
		return nil
	}
	return cq.PollAppend(make([]CQE, 0, n), n)
}

// Len reports the visible completions.
func (cq *CQ) Len() int {
	n := 0
	for n < cq.cnt && cq.eng.Reached(cq.slot(n).key) {
		n++
	}
	return n
}

// NextAt reports when a queue that shows nothing shows its earliest pending
// completion: sim.MaxTime while it shows one, or holds none.
func (cq *CQ) NextAt() sim.Time {
	if cq.cnt == 0 || cq.eng.Reached(cq.slot(0).key) {
		return sim.MaxTime
	}
	return cq.slot(0).key.At
}

// SendWR is a send-queue work request.
type SendWR struct {
	ID    uint64
	Op    Op
	Len   int
	Data  []byte // optional payload (nil → size-only simulation); a completed READ's result
	Local uint64 // READ: where the response lands (registered memory; 0 = a private buffer)

	// One-sided target.
	RAddr uint64
	RKey  uint32

	Imm uint32

	// SizeOnly makes a READ move lengths only, as a SEND with nil Data
	// does: the responder still checks the rkey and bounds but snapshots
	// nothing, and the completion's Data is nil.
	SizeOnly bool

	// Unsignaled WRs produce no CQE on success (X-RDMA uses this for
	// keepalive probes and acks to keep CQ pressure down).
	Unsignaled bool

	// Blame, when non-nil, marks the WR blame-traced: every packet it
	// produces carries this accumulator as its trace bit so the fabric
	// stamps hop residency into it.
	Blame *telemetry.PktBlame

	// internal
	firstPSN, lastPSN uint32
	packets           int
	jobs              int    // transmit jobs referencing the WR (see Queued)
	rtxSeen           uint64 // NIC.rtxEpoch of the last retransmitUnacked that found the WR queued
	postedAt          sim.Time
	startedAt         sim.Time
	finishedAt        sim.Time
}

// TxTimes reports when the WR was posted to the SQ, started occupying
// the transmit pipeline, and emitted its last packet — the stamps blame
// tracing decomposes into SQ-wait and serialization stages. Zero values
// mean the phase has not happened (yet).
func (wr *SendWR) TxTimes() (posted, started, finished sim.Time) {
	return wr.postedAt, wr.startedAt, wr.finishedAt
}

// Queued reports whether a transmit job still references the WR. That can
// outlast the WR's completion: an ack that overtakes a go-back-N
// retransmission already scheduled retires the WR while the (now spurious)
// retransmit job still waits for the pipeline and will read the WR's
// length, PSNs and payload when its turn comes. A poster that recycles WRs
// must leave one alone until this reports false.
func (wr *SendWR) Queued() bool { return wr.jobs > 0 }

// RecvWR is a receive-queue work request: a buffer for one incoming
// message.
type RecvWR struct {
	ID   uint64
	Addr uint64
	Len  int
}

// recvQueue is a receive queue, a QP's own or the SRQ's, held as runs: a run is
// a first WR and a count, each next WR naming ID+1 at Addr+Len, so a pool block
// posted at once, or reposted in order, is one entry. take hands the WRs out
// one by one, in post order. The storage is reused like sim.Queue's (a spent
// run is skipped, not shifted out: WRs that never merge make as many runs),
// and reset keeps it.
type recvQueue struct {
	runs    []rqRun
	head, n int32 // the oldest live run; the WRs posted
}

type rqRun struct {
	RecvWR
	n int
}

// post queues the run of n WRs from first, extending the tail run when first
// continues it, or refuses it whole (false) when fewer than n more fit under
// depth.
func (q *recvQueue) post(first RecvWR, n, depth int) bool {
	if n < 1 || n > min(depth, math.MaxInt32)-int(q.n) {
		return false
	}
	q.n += int32(n)
	if t := len(q.runs) - 1; t >= 0 { // live: take drops the runs of an emptied queue
		if r := &q.runs[t]; r.Len == first.Len && first.ID == r.ID+uint64(r.n) && first.Addr == r.Addr+uint64(r.n*r.Len) {
			r.n += n
			return true
		}
	}
	if q.head > 0 && len(q.runs) == cap(q.runs) && int(q.head) >= len(q.runs)/2 {
		q.runs, q.head = q.runs[:copy(q.runs, q.runs[q.head:])], 0
	}
	if q.runs == nil {
		q.runs = make([]rqRun, 0, 2) // a pool's run and its reposts: one allocation
	}
	q.runs = append(q.runs, rqRun{first, n})
	return true
}

func (q *recvQueue) take() (wr RecvWR, ok bool) {
	if q.n == 0 {
		return wr, false
	}
	q.n--
	r := &q.runs[q.head]
	if wr = r.RecvWR; r.n > 1 {
		r.ID, r.Addr, r.n = r.ID+1, r.Addr+uint64(r.Len), r.n-1
	} else if q.head++; q.n == 0 {
		q.runs, q.head = q.runs[:0], 0
	}
	return wr, true
}

func (q *recvQueue) reset() { *q = recvQueue{runs: q.runs[:0]} }

// SRQ is a shared receive queue (§VII-F "Pay attention to SRQ").
type SRQ struct {
	Depth int
	queue recvQueue // posted WQEs
	// Posted counts total WQEs ever posted (monitoring).
	Posted int64
	// The armed low watermark (Arm); limit 0 is disarmed.
	limit   int
	onLimit func()
}

// NewSRQ creates a shared receive queue.
func NewSRQ(depth int) *SRQ { return &SRQ{Depth: depth} }

// Arm sets the one-shot low watermark (ibv_modify_srq with srq_limit): the
// consume that leaves fewer than limit WQEs posted calls fn, from inside the
// consume like CQ.OnCompletion's callback, and disarms — nothing fires again
// until the owner arms again (IBV_EVENT_SRQ_LIMIT_REACHED). Posting never
// fires it, and a queue armed while already below the limit fires on its next
// consume. limit 0 disarms.
func (s *SRQ) Arm(limit int, fn func()) { s.limit, s.onLimit = limit, fn }

// Flush drops every posted WQE and disarms the limit: after NIC.Restart the
// buffers they name are gone with the adapter's registered memory, and the
// owner posts fresh ones.
func (s *SRQ) Flush() { s.queue.reset(); s.Arm(0, nil) }

func (s *SRQ) take() (RecvWR, bool) {
	wr, ok := s.queue.take()
	if ok && int(s.queue.n) < s.limit {
		s.limit = 0
		s.onLimit()
	}
	return wr, ok
}

// Post adds a receive buffer; errors when full.
func (s *SRQ) Post(wr RecvWR) error { return s.PostRun(wr, 1) }

// PostRun adds n receive buffers, first and each next naming ID+1 at
// Addr+Len (ibv_post_srq_recv with a chain of n WRs); refused whole when they
// do not all fit.
func (s *SRQ) PostRun(first RecvWR, n int) error {
	if !s.queue.post(first, n, s.Depth) {
		return errors.New("rnic: SRQ full")
	}
	s.Posted += int64(n)
	return nil
}

// Len reports available receive WQEs.
func (s *SRQ) Len() int { return int(s.queue.n) }

// QPCounters are per-QP statistics exposed to XR-Stat.
type QPCounters struct {
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
	RNRNakRecv           int64 // we sent and peer wasn't ready
	RNRNakSent           int64 // we weren't ready
	Retransmits          int64
	CNPRecv              int64
	SeqNakRecv           int64
	CorruptDrops         int64 // inbound frames for this QP that failed FCS
	RemoteAccessErrs     int64 // rkey/bounds violations (detected or NAKed back)

	// Cumulative recovery residency, nanoseconds: time this QP spent
	// waiting out retransmission timeouts and RNR backoffs. Blame
	// tracing attributes per-message recovery time from deltas of
	// these between request issue and response arrival.
	RTORecoveryNs int64
	RNRRecoveryNs int64
}

// QP is an RC queue pair.
type QP struct {
	QPN    uint32
	nic    *NIC
	State  QPState
	SQCap  int
	RQCap  int
	SendCQ *CQ
	RecvCQ *CQ
	srq    *SRQ

	// Connection identity, set at RTR. flowBase is the connection's
	// canonical ECMP flow key; flowLabel is the mutable RoCEv2
	// UDP-source-port analogue the middleware rotates to steer the flow
	// onto a different equal-cost path, and flowHash is the effective key
	// stamped into every outbound packet (flowBase perturbed by the
	// label).
	RemoteNode fabric.NodeID
	RemoteQPN  uint32
	flowBase   uint64
	flowLabel  uint64
	flowHash   uint64

	// Transmit side.
	sq              []*SendWR
	nextPSN         uint32
	unacked         []*SendWR // in flight, oldest first
	msgSeq          uint64
	rnrBackoffUntil sim.Time
	retries         int
	rnrRetries      int
	rtoEvent        sim.Event
	rtoAt           sim.Time // the deadline; a pending rtoEvent before it re-arms there
	nextTxTime      sim.Time
	pendingReads    map[uint64]*readState
	lastSeenAck     uint32

	// CQE ordering watermarks: completion costs vary (QP-cache misses),
	// but completions for one QP must never overtake each other.
	sendCQAt sim.Time
	recvCQAt sim.Time

	// Receive side.
	rq           recvQueue
	expected     uint32 // next expected PSN
	assemble     *assembly
	pktsSinceAck int
	ackTimer     sim.Event
	nakedAt      uint32 // last PSN we NAKed, to suppress NAK storms
	nakValid     bool

	// Cached timer closures, built once at QP allocation and preserved
	// across QP reset.
	rtoFn func()
	ackFn func()
	rnrFn func() // every RNR NAK schedules its own backoff expiry with it

	// DCQCN rate state.
	rate *dcqcnState

	Counters QPCounters

	// CreatedAt / lastComm support keepalive diagnostics.
	CreatedAt sim.Time
	LastComm  sim.Time

	// The NIC's QP context cache (cache.go): this QP's place in its LRU ring.
	lru [2]*QP
}

// RingLink is the QP's place in the NIC's context cache, for sim.Ring.
func (qp *QP) RingLink() *[2]*QP { return &qp.lru }

// assembly tracks an in-progress multi-packet inbound message.
type assembly struct {
	op     Op
	msgLen int
	got    int
	recvWR RecvWR
	hasWR  bool
	mr     *MR    // write target region
	raddr  uint64 // write target address
	data   []byte // where carried bytes land (NIC.landing); nil until some are
	blame  *telemetry.PktBlame
}

// readState tracks an outstanding RDMA READ at the requester: the
// response-stream cursor (next expected PSN within the WR's allocated
// range) and where the response lands (NIC.landing). Reliability is NOT
// tracked here — the READ WR sits in qp.unacked like any send, so loss
// anywhere in the request/response exchange is recovered by the one
// go-back-N RTO.
type readState struct {
	wr      *SendWR
	got     int
	data    []byte
	nextPSN uint32
}

// errors returned by the posting API.
var (
	ErrQPState = errors.New("rnic: QP in wrong state")
	ErrSQFull  = errors.New("rnic: send queue full")
	ErrRQFull  = errors.New("rnic: receive queue full")
)

// FlowHash reports the effective ECMP flow key stamped into this QP's
// outbound packets (diagnostics; path-doctor tooling predicts the leaf
// choice with fabric.ECMPIndex).
func (qp *QP) FlowHash() uint64 { return qp.flowHash }

// PostRecv queues a receive buffer.
func (qp *QP) PostRecv(wr RecvWR) error { return qp.PostRecvRun(wr, 1) }

// PostRecvRun queues n receive buffers, first and each next naming ID+1 at
// Addr+Len (ibv_post_recv with a chain of n WRs); refused whole when they do
// not all fit.
func (qp *QP) PostRecvRun(first RecvWR, n int) error {
	if qp.srq != nil {
		return errors.New("rnic: QP bound to SRQ; post to the SRQ")
	}
	if qp.State == QPReset || qp.State == QPError {
		return fmt.Errorf("%w: %v", ErrQPState, qp.State)
	}
	if !qp.rq.post(first, n, qp.RQCap) {
		return ErrRQFull
	}
	return nil
}

// RecvQueueLen reports available receive WQEs.
func (qp *QP) RecvQueueLen() int {
	if qp.srq != nil {
		return qp.srq.Len()
	}
	return int(qp.rq.n)
}

// RecvRuns reports the runs the QP's own receive queue holds its WRs in, and
// how many its storage has room for.
func (qp *QP) RecvRuns() (runs, room int) { return len(qp.rq.runs) - int(qp.rq.head), cap(qp.rq.runs) }

// SendQueueLen reports WRs posted but not yet completed.
func (qp *QP) SendQueueLen() int { return len(qp.sq) + len(qp.unacked) }

// PostSend queues a work request for transmission. The NIC engine picks it
// up asynchronously; completion arrives on SendCQ.
func (qp *QP) PostSend(wr *SendWR) error {
	if qp.State != QPRTS {
		return fmt.Errorf("%w: %v (need RTS)", ErrQPState, qp.State)
	}
	if len(qp.sq)+len(qp.unacked) >= qp.SQCap {
		return ErrSQFull
	}
	if wr.Op == OpRead && wr.Len > 0 && wr.RKey == 0 {
		return fmt.Errorf("rnic: READ without rkey")
	}
	wr.postedAt = qp.nic.eng.Now()
	qp.sq = append(qp.sq, wr)
	j := qp.nic.pool.job()
	j.qp, j.wr = qp, wr
	wr.jobs++
	qp.nic.enqueueJob(j)
	return nil
}

func (qp *QP) takeRecv() (RecvWR, bool) {
	if qp.srq != nil {
		return qp.srq.take()
	}
	return qp.rq.take()
}

// enterError flushes all outstanding work with the given status and marks
// the QP broken. The middleware observes this via flushed CQEs (and via
// keepalive timeouts when the peer is gone).
func (qp *QP) enterError(st Status) {
	if qp.State == QPError {
		return
	}
	qp.State = QPError
	n := qp.nic
	now := n.eng.Now()
	n.tel.Flight.Record(now, telemetry.CatQPError, int32(n.Node), qp.QPN, int64(st), 0)
	// Retry exhaustion is a broken protocol invariant: freeze the flight
	// recorder so the dump shows what led up to it.
	switch st {
	case StatusRetryExceeded:
		n.tel.Flight.Trip(now, telemetry.CatRetryExhausted, int32(n.Node), qp.QPN)
	case StatusRNRRetryExceeded:
		n.tel.Flight.Trip(now, telemetry.CatRNRStorm, int32(n.Node), qp.QPN)
	}
	qp.nic.eng.Cancel(qp.rtoEvent)
	qp.rtoEvent = sim.Event{}
	qp.nic.eng.Cancel(qp.ackTimer)
	qp.ackTimer = sim.Event{}
	// READ WRs are members of both pendingReads (response-stream cursor)
	// and unacked (reliability); drop the cursors without completing so the
	// unacked flush below raises exactly one CQE per WR.
	for id, rs := range qp.pendingReads {
		delete(qp.pendingReads, id)
		n.pool.putReadState(rs)
	}
	for _, wr := range qp.unacked {
		qp.completeSend(wr, st, n.eng.Current())
	}
	for _, wr := range qp.sq {
		qp.completeSend(wr, st, n.eng.Current())
	}
	qp.sq, qp.unacked = emptied(qp.sq), emptied(qp.unacked)
	qp.nic.dropJobsFor(qp)
}

// emptied zeroes a send queue's whole backing array — a removal shifts a WR
// down and leaves a copy past len — and returns it empty: the QP keeps its
// storage, so a recycled one posts without growing it again, and pins no WR
// (nor the payload a WR names) it flushed.
func emptied(q []*SendWR) []*SendWR {
	clear(q[:cap(q)])
	return q[:0]
}

// completeSend raises wr's send completion, visible at k. A successful
// unsignaled WR raises none.
func (qp *QP) completeSend(wr *SendWR, st Status, k sim.Key) {
	if wr.Unsignaled && st == StatusOK {
		return
	}
	cqe := CQE{WRID: wr.ID, QPN: qp.QPN, Op: wr.Op, Status: st, Len: wr.Len, Imm: wr.Imm}
	if wr.Op == OpRead && st == StatusOK {
		// handleReadResp parked the gathered payload on the WR.
		cqe.Data = wr.Data
	}
	qp.SendCQ.push(k, &cqe)
}

// sendCQEKey is the key a send completion becomes visible at: d from now,
// never before an earlier completion on the same QP.
func (qp *QP) sendCQEKey(d sim.Duration) sim.Key {
	qp.sendCQAt = max(qp.nic.eng.Now().Add(d), qp.sendCQAt)
	return qp.nic.eng.Reserve(qp.sendCQAt)
}

// pushRecvCQE raises a receive completion visible d from now, with the same
// ordering guarantee.
func (qp *QP) pushRecvCQE(d sim.Duration, cqe *CQE) {
	qp.recvCQAt = max(qp.nic.eng.Now().Add(d), qp.recvCQAt)
	qp.RecvCQ.push(qp.nic.eng.Reserve(qp.recvCQAt), cqe)
}
