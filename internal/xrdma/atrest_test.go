package xrdma

import (
	"slices"
	"testing"

	"xrdma/internal/rnic"
)

// The ledger of the reclamation contract (§V-A: no resource left behind), in
// one place. checkStructure is the half that holds between any two events;
// every test world runs it when its test ends (buildWorld). checkAtRest is the
// whole of it, for a world the engine has drained: the caller names how many
// links each node still lists — a shared QP pooled past its last rider, the
// links of channels left open — and the rest follows from those links.

// checkStructure: the QPN table names live links under their current QPN, and
// every live link with an installed QP is in it (a link on the Mock fallback
// holds none); no link is both establishing and listed; no record counts twice.
// The context's stalled count is the riders marked stalled; a listed channel
// holds window slots exactly while its window is in use and a waiter map
// exactly while a request or ping awaits its answer, the issue-order ring
// threads the same waiters, and neither slots nor map counts twice.
// Every exclusive channel of a tracked context (trackEnds) is its link's only
// rider (a closed one may have left it: detach); once closed, its link — one
// object with it, so the application's handle keeps it — holds no QP, pool,
// dial or Mock conn.
func checkStructure(t testing.TB, c *Context) {
	t.Helper()
	live := map[*link]bool{}
	for _, l := range c.links {
		live[l] = true
		if l.qp != nil && c.qpnTab.Get(uint64(l.qp.QPN)) != l {
			t.Errorf("node %d: live link (peer %d, qpn %d) missing from the QPN table", c.Node(), l.peer, l.qp.QPN)
		}
	}
	for q, l := range c.qpnTab.All() {
		if !live[l] || l.qp == nil || uint64(l.qp.QPN) != q {
			t.Errorf("node %d: stale QPN table entry %d → link peer=%d state=%d", c.Node(), q, l.peer, l.state)
		}
	}
	for _, l := range c.dialing {
		if live[l] {
			t.Errorf("node %d: link (peer %d) both establishing and listed", c.Node(), l.peer)
		}
	}
	if c.recs.Free()+c.posted.Len() > c.recs.Live() {
		t.Errorf("node %d: %d records free and %d posted of %d live", c.Node(), c.recs.Free(), c.posted.Len(), c.recs.Live())
	}
	stalled, wins, maps := 0, 0, 0
	for _, l := range c.allLinks() {
		for _, ch := range l.riders {
			if ch.stallFlag {
				stalled++
			}
		}
	}
	if stalled != c.stalled {
		t.Errorf("node %d: %d riders marked stalled, the context counts %d", c.Node(), stalled, c.stalled)
	}
	for _, ch := range c.Channels() {
		if inUse := ch.win.seq != ch.win.acked || ch.win.rta != ch.win.wta; (ch.win.slots != nil) != inUse {
			t.Errorf("node %d: channel (peer %d) holds slots=%v with its window in use=%v", c.Node(), ch.Peer, ch.win.slots != nil, inUse)
		}
		if (ch.pending != nil) != (len(ch.pending) > 0) {
			t.Errorf("node %d: channel (peer %d) holds an empty waiter map", c.Node(), ch.Peer)
		}
		if n := len(ch.waiters()); n != len(ch.pending) {
			t.Errorf("node %d: channel (peer %d) threads %d waiters in issue order, %d by MsgID", c.Node(), ch.Peer, n, len(ch.pending))
		}
		if ch.win.slots != nil {
			wins++
		}
		if ch.pending != nil {
			maps++
		}
	}
	if c.wins.Free()+wins > c.wins.Live() || c.waitMaps.Free()+maps > c.waitMaps.Live() {
		t.Errorf("node %d: %d slot arrays free and %d held of %d live, %d waiter maps free and %d held of %d",
			c.Node(), c.wins.Free(), wins, c.wins.Live(), c.waitMaps.Free(), maps, c.waitMaps.Live())
	}
	for _, ch := range ends[c] {
		l := ch.lk
		if n := len(l.riders); n > 1 || n == 1 && l.riders[0] != ch || n == 0 && !ch.closed {
			t.Errorf("node %d: exclusive channel (peer %d, closed=%v) is not its link's only rider: %d riders", c.Node(), ch.Peer, ch.closed, len(l.riders))
		}
		if ch.closed && (l.qp != nil || l.pool != nil || l.dialing != nil || l.fb != nil) {
			t.Errorf("node %d: closed exclusive channel (peer %d) keeps qp=%v pool=%v dialing=%v fb=%v",
				c.Node(), ch.Peer, l.qp != nil, l.pool != nil, l.dialing != nil, l.fb != nil)
		}
	}
}

// checkAtRest holds a drained world to the ledger; listed[i] is how many links
// node i still lists. Memory: what is out of the cache is the live blocks of
// the standing receive pools (the SRQ's, each listed link's) — by bytes, by
// what the regions say is taken, by blocks never freed unless the NIC
// restarted — none in a dead region, nothing waits, and the SRQ has its fill.
// NIC and CM: the QPs out of RESET, and beyond the cache, are the listed links'
// own; no dial pending; no receive landed in unregistered memory. Records and
// channels: every record free but one keepalive probe per listed link at most
// (none on a closed context, whose CQs Close drained); every channel a listed
// link's rider and idle — nothing in flight, queued, awaited or being pulled
// (Channel.idle, the drain's rule) — so every slot array and waiter map is on
// its free list; no attach admitted or queued. It only reads: a world may be
// checked twice.
func (w *testWorld) checkAtRest(t testing.TB, listed ...int) {
	t.Helper()
	if len(listed) != len(w.ctxs) {
		t.Fatalf("%d link counts for %d nodes", len(listed), len(w.ctxs))
	}
	for i, c := range w.ctxs {
		checkStructure(t, c)
		nic := w.nics[i]
		if len(c.links) != listed[i] || len(c.dialing) != 0 {
			t.Errorf("node %d: %d links listed, %d establishing; want %d and none", i, len(c.links), len(c.dialing), listed[i])
		}

		pools, holding, riders := []*recvPool{c.srqPool}, 0, 0
		for _, l := range c.links {
			pools, riders = append(pools, l.pool), riders+len(l.riders)
			if l.qp != nil {
				holding++
			}
		}
		var bytes, rounded, blocks, dead, taken int64
		for _, p := range pools {
			b, r, n, d := poolHeld(c, p)
			bytes, rounded, blocks, dead = bytes+b, rounded+r, blocks+n, dead+d
		}
		for _, r := range c.Mem.regions {
			taken += int64(r.inUse)
		}
		if c.Mem.InUseBytes != bytes || taken != rounded || c.Mem.gen == 0 && c.Mem.Allocs-c.Mem.Frees != blocks || dead != 0 {
			t.Errorf("node %d: Mem.InUseBytes=%d, regions hold %d, %d blocks out (Allocs=%d Frees=%d, %d restarts), want %d in %d (%d rounded), %d of them in dead regions",
				i, c.Mem.InUseBytes, taken, c.Mem.Allocs-c.Mem.Frees, c.Mem.Allocs, c.Mem.Frees, c.Mem.gen, bytes, blocks, rounded, dead)
		}
		if c.Mem.waiters.Len() != 0 || c.Mem.growing || int(c.Stats.SRQPosted) != srqFill(c) {
			t.Errorf("node %d: %d allocations waiting (growing=%v), %d SRQ slots in place of %d", i, c.Mem.waiters.Len(), c.Mem.growing, c.Stats.SRQPosted, srqFill(c))
		}

		live := 0
		for q := uint32(0); q < 1<<12; q++ {
			if qp := nic.QP(q); qp != nil && qp.State != rnic.QPReset {
				live++ // connected, broken but held, or — INIT — stranded by a dial nobody answered
			}
		}
		if live != holding || nic.NumQPs()-c.QPs.Len() != holding {
			t.Errorf("node %d: %d QPs out of RESET, %d on the NIC beyond the cache's %d; the listed links hold %d", i, live, nic.NumQPs(), c.QPs.Len(), holding)
		}
		if n := c.cm.PendingDials(); n != 0 {
			t.Errorf("node %d: %d dials pending in the CM", i, n)
		}
		if n := nic.Counters.LocalProtErrs; n != 0 {
			t.Errorf("node %d: %d receives landed in unregistered memory", i, n)
		}
		if s, r := c.sendCQ.Overflows, c.recvCQ.Overflows; s+r != 0 {
			t.Errorf("node %d: CQs overflowed (send %d, receive %d): a real one would have killed its QPs", i, s, r)
		}

		// Close gives every QP back, whose flushes queue at once, and drains
		// the CQs once before the poller stops: a closed context keeps no
		// record posted and no send completion queued (a peer's frame may
		// still land in its receive CQ).
		if !c.started && c.posted.Len()+c.sendCQ.Len() != 0 {
			t.Errorf("node %d: closed with %d records posted and %d send completions queued", i, c.posted.Len(), c.sendCQ.Len())
		}
		probed := map[*link]bool{}
		for _, rec := range c.posted.All() {
			if c.started && (rec.kind != recProbe || probed[rec.lk] || !slices.Contains(c.links, rec.lk)) {
				t.Errorf("node %d: a record of kind %d posted at rest (only a listed link's one keepalive probe may be)", i, rec.kind)
			}
			probed[rec.lk] = true
		}
		if c.recs.Free()+c.posted.Len() != c.recs.Live() {
			t.Errorf("node %d: %d records free and %d posted of %d live", i, c.recs.Free(), c.posted.Len(), c.recs.Live())
		}
		if n := c.NumChannels(); n != riders {
			t.Errorf("node %d: %d channels, the listed links carry %d", i, n, riders)
		}
		for _, ch := range c.Channels() {
			if !ch.idle() {
				t.Errorf("node %d: channel not idle: %d in flight, %d queued, %d awaiting an answer, %d being pulled, attach %d",
					i, ch.Inflight(), ch.sendQ.Len(), len(ch.pending), ch.win.wta-ch.win.rta, ch.attach)
			}
		}
		if c.wins.Free() != c.wins.Live() || c.waitMaps.Free() != c.waitMaps.Live() {
			t.Errorf("node %d: %d of %d slot arrays and %d of %d waiter maps on their free lists",
				i, c.wins.Free(), c.wins.Live(), c.waitMaps.Free(), c.waitMaps.Live())
		}
		if c.attachActive != 0 || c.attachQ.Len() != 0 {
			t.Errorf("node %d: %d attaches admitted, %d queued", i, c.attachActive, c.attachQ.Len())
		}
	}
}

// poolHeld is what a receive pool keeps out of the cache: its live blocks'
// bytes (canaries included), their block-rounded footprint, their number, and
// how many of them lie in a region a NIC restart killed.
func poolHeld(c *Context, p *recvPool) (bytes, rounded, blocks, dead int64) {
	for k := 0; p != nil && k < len(p.blocks); k++ {
		if b := p.blocks[k]; b.Valid() {
			bytes, rounded, blocks = bytes+int64(b.Len+c.Mem.pad()), rounded+int64(b.totalLen), blocks+1
			if b.region.dead {
				dead++
			}
		}
	}
	return bytes, rounded, blocks, dead
}

// srqFill is how many slots a context's shared receive queue should have in
// place now, by the fill rule (sharedRQ): the first block — what the cache's
// floor holds, one link pool's block — and one more per limit event, up to
// SRQSize; none before the first QP carves the pool, or after a NIC restart
// dropped it. (A block whose registration is still in flight is counted: ask
// once the engine has run.)
func srqFill(c *Context) int {
	if c.srqPool == nil {
		return 0
	}
	per := (c.Mem.floor() - c.Mem.pad()) / c.recvBufSize()
	return min(c.cfg.SRQSize, per*(1+int(c.Stats.SRQGrows)))
}

// waiters lists the channel's response waiters in ring order, oldest first.
func (ch *Channel) waiters() (rs []*msgRec) {
	for r := ch.issued.Oldest(); r != nil; r = ch.issued.Next(r) {
		rs = append(rs, r)
	}
	return rs
}
