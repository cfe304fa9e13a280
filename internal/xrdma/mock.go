package xrdma

import (
	"fmt"
	"slices"

	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/telemetry"
)

// Mock (§VI-C): when the RDMA path collapses — heavy anomaly, protocol
// stack failure, broken QP — a channel can temporarily switch to the TCP
// network, keeping the application's message flow alive at degraded
// performance. The side with the lower node ID dials the peer's mock
// port; the other side waits for the inbound connection and matches it to
// the broken channel by the rule every redial follows: the hello names the
// link by its establishment QPN pair (link.is). The fallback is link state
// (linkFallback, with the conn in link.fb and no QP): frames enter and leave
// through the link's one frame path like any other transport's.
//
// The mock transport carries the same wire headers (Seq/Ack included) as
// the RDMA path, so the seq-ack window spans both transports: a cutover
// in either direction replays the unacked tail and the receiver's window
// dedups whatever already made it across — exactly-once, both directions.
//
// What rides the fallback is the message protocol — windowed messages, all
// inline, and header-only control frames — and nothing that pretends to be an
// RNIC: one-sided verbs answer ErrNoPath on a mocked channel (onesided.go).

// listenMock accepts fallback connections for broken channels. A hello
// can arrive before this side has noticed its own RDMA failure (the two
// keepalive clocks are independent), so unmatched connections are parked
// briefly instead of rejected.
func (c *Context) listenMock() {
	c.tcp.Listen(c.mockPort, func(conn *tcpnet.Conn) {
		conn.OnMessage = func(m tcpnet.Message) {
			h, v := c.readHello(conn.Remote, m.Data)
			if v != helloOK || h.purpose != helloMock {
				// Not a fallback rendezvous this build recognizes — most
				// likely a foreign-release peer (already counted when the
				// hello was ours but unreadable).
				conn.Close()
				return
			}
			switch l := c.named(conn.Remote, h); {
			case l != nil && l.state == linkFallback:
				// The channel waits for this conn — or already had one, which
				// died on the peer's side first and is being redialed.
				if l.fb != conn {
					l.closeFallback()
				}
				l.riders[0].attachMock(conn)
			case l != nil && c.cfg.MockEnabled:
				// The peer switched but this side's channel is still live or
				// degraded (failure detection is not synchronized): adopt the
				// switch.
				l.riders[0].enterMockMode()
				l.riders[0].attachMock(conn)
			default:
				c.parkMockConn(h, conn)
			}
		}
	})
}

type parkedMock struct {
	h    hello // what the conn's hello named
	conn *tcpnet.Conn
	// buf holds frames the dialer pumped before this side claimed the
	// conn: the dialer attaches (and replays its unacked tail) as soon as
	// the TCP handshake completes, which can be a full failure-detection
	// gap before the local channel degrades. Dropping those frames would
	// lose them for good — the mock transport is reliable, so nothing
	// retransmits them short of another cutover.
	buf [][]byte
}

// parkMockConn holds an unmatched inbound mock connection until the local
// channel notices its failure and claims it. A parked conn that dies
// (peer gave up) leaves the list immediately, and the grace timer closes
// whatever is still unclaimed — parked conns never outlive the grace.
func (c *Context) parkMockConn(h hello, conn *tcpnet.Conn) {
	p := &parkedMock{h: h, conn: conn}
	c.mockParked = append(c.mockParked, p)
	conn.OnMessage = func(m tcpnet.Message) {
		p.buf = append(p.buf, slices.Clone(m.Data))
	}
	conn.OnClose = func(error) { c.unpark(p) }
	c.eng.AfterBg(c.mockGrace(), func() {
		if c.unpark(p) {
			conn.OnClose = nil
			conn.Close()
		}
	})
}

// unpark takes p off the parked list; false if it already left.
func (c *Context) unpark(p *parkedMock) bool {
	i := slices.Index(c.mockParked, p)
	if i >= 0 {
		c.mockParked = slices.Delete(c.mockParked, i, i+1)
	}
	return i >= 0
}

// claimParkedMock is called when l enters mock-waiting state: an
// early-arriving peer connection that names it may already be parked. Dead
// parked conns (closed between the OnClose callback and now) are discarded.
func (c *Context) claimParkedMock(l *link) *parkedMock {
	for _, p := range slices.Clone(c.mockParked) {
		if c.named(p.conn.Remote, p.h) == l && c.unpark(p) {
			p.conn.OnClose = nil
			if p.conn.Open() {
				return p
			}
		}
	}
	return nil
}

// enterMockMode releases a channel's RDMA resources; the send queue and
// the unacked window tail stay with the channel and replay over the mock
// transport once it attaches.
func (ch *Channel) enterMockMode() {
	c := ch.ctx
	c.Stats.MockSwitches++
	c.tel.Flight.Trip(c.eng.Now(), telemetry.CatMockSwitch, int32(c.Node()), ch.QPN())

	ch.setHealth(HealthFallback)
	ch.lk.state = linkFallback
	ch.lk.turn() // cancels a replacement dial in flight
	ch.resumeOnRx = false

	// Staged rendezvous payloads are RDMA-only; the mock transport sends
	// every message inline from ps.data, so release them; a pull in flight
	// completes stale, and the sender replays it inline.
	ch.unstage()
	c.putMap(&ch.pulls)

	// Release RDMA resources: the QP leaves the QPN table and recycles through
	// the cache, then its receive pool returns to the memory cache. The link
	// holds no QP on the fallback, so the XR-Stat row goes with it (hasRow) —
	// the recycled QPN may soon host a new channel.
	ch.quiesce()
	ch.lk.giveBack()
}

// connectMock runs the mock rendezvous for a channel already in mock
// mode: the lower node ID dials, the higher one waits (claiming an
// early-parked conn if the dialer beat it here).
func (ch *Channel) connectMock(cause error) {
	c := ch.ctx
	if ch.lk.dialer {
		ch.mockDial(cause, 0)
		return
	}
	if p := c.claimParkedMock(ch.lk); p != nil {
		ch.attachMock(p.conn)
		// Deliver frames the dialer sent while the conn sat parked, in
		// arrival order; the window dedups anything replayed again later.
		for _, b := range p.buf {
			if ch.lk.fb != p.conn {
				break
			}
			ch.lk.ingest(b, 0, true, nil)
		}
		return
	}
	// Give the dialer a bounded window; a vanished peer must not leak a
	// waiting channel. Failure detection on the two sides can differ by a
	// full RC retry horizon, so the window must cover at least two.
	c.eng.AfterBg(c.mockGrace(), func() {
		if !ch.closed && ch.lk.state == linkFallback && ch.lk.fb == nil {
			ch.teardown(fmt.Errorf("xrdma: mock fallback never connected (after %v)", cause))
		}
	})
}

// mockDial is the dialer side of the mock rendezvous, retried
// mockDialRetries times with exponential backoff: a single failed dial (the
// peer's listener mid-restart, a dropped SYN) must not turn a transient race
// into a hard teardown.
func (ch *Channel) mockDial(cause error, attempt int) {
	c := ch.ctx
	// The mock port is a fleet-wide convention (same port everywhere), which
	// is how production config rolls out.
	c.tcp.Dial(ch.Peer, c.mockPort, func(conn *tcpnet.Conn, err error) {
		if ch.closed || ch.lk.state != linkFallback || ch.lk.fb != nil {
			if err == nil {
				conn.Close()
			}
			return
		}
		if err == nil {
			conn.Send(ch.lk.identity(helloMock).encode(), 0, nil)
			ch.attachMock(conn)
			return
		}
		if attempt+1 >= mockDialRetries {
			ch.teardown(fmt.Errorf("xrdma: mock dial failed after %d attempts: %v (after %v)", attempt+1, err, cause))
			return
		}
		c.eng.AfterBg(mockDialBackoff<<uint(attempt), func() {
			if ch.closed || ch.lk.state != linkFallback || ch.lk.fb != nil {
				return
			}
			ch.mockDial(cause, attempt+1)
		})
	})
}

// The Mock dial budget: attempts before the channel is declared dead, and the
// delay before the first redial, doubling per attempt.
const (
	mockDialRetries = 4
	mockDialBackoff = sim.Millisecond
)

// mockGrace bounds how long one side waits for the other to notice the
// failure: two RC retry horizons, or the keepalive timeout if larger.
func (c *Context) mockGrace() sim.Duration {
	nic := &c.vctx.NIC.Cfg
	return 2 * max(sim.Duration(nic.RetryLimit+2)*nic.RetransTimeout, c.cfg.KeepaliveTimeout)
}

// attachMock makes conn the fallback link's transport.
func (ch *Channel) attachMock(conn *tcpnet.Conn) {
	c, l := ch.ctx, ch.lk
	l.fb = conn
	conn.OnMessage = func(m tcpnet.Message) { l.ingest(m.Data, 0, true, nil) }
	conn.OnClose = func(err error) {
		if ch.closed || l.fb != conn {
			return
		}
		l.fb = nil
		if ch.health == HealthRecovering {
			// A failback probe is in flight; its completion decides
			// whether to adopt RDMA or rebuild the mock conn.
			return
		}
		cause := fmt.Errorf("xrdma: mock transport closed: %v", err)
		if c.recoverPort > 0 {
			// The fallback plane hiccupped but the channel can survive:
			// re-run the mock rendezvous.
			ch.connectMock(cause)
		} else {
			ch.teardown(cause)
		}
	}
	ch.setHealth(HealthFallback)
	// Replay the unacked window tail (the receiver's window dedups), then
	// drain whatever queued while disconnected.
	ch.requeueUnacked()
	l.scheduleDial(nil) // the failback probe; it has no budget to spend, so no cause to report
	ch.pump()
}

// Mocked reports whether the channel is running over the TCP fallback.
func (ch *Channel) Mocked() bool { return ch.lk != nil && ch.lk.state == linkFallback }

// ForceMock switches a healthy channel to TCP (the manual tuning-system
// toggle). It needs the Mock plane wired — a TCP stack and a mock port — not
// MockEnabled, which only arms the automatic fallback; and its own QP.
func (ch *Channel) ForceMock() error {
	switch {
	case ch.ctx.tcp == nil || ch.ctx.mockPort == 0:
		return fmt.Errorf("xrdma: mock plane not configured")
	case ch.cid != 0:
		return fmt.Errorf("xrdma: Mock is exclusive-only: muxed channel %d shares its QP", ch.cid)
	case ch.Mocked() || ch.closed:
		return nil
	}
	ch.enterMockMode()
	ch.connectMock(fmt.Errorf("manual switch"))
	return nil
}
