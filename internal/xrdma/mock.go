package xrdma

import (
	"fmt"

	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/telemetry"
)

// Mock (§VI-C): when the RDMA path collapses — heavy anomaly, protocol
// stack failure, broken QP — a channel can temporarily switch to the TCP
// network, keeping the application's message flow alive at degraded
// performance. The side with the lower node ID dials the peer's mock
// port, and its hello names the link by the rule every redial follows: the
// establishment QPN pair (link.is). The listener switches the link it names
// to the conn at once, or closes a conn that names none; nothing waits
// there for a link to appear. The dialer's attempts are bounded, a refused
// conn counting as a failed dial. The fallback is link state (linkFallback,
// with the conn in link.fb and no QP): frames enter and leave through the
// link's one frame path like any other transport's.
//
// The mock transport carries the same wire headers (Seq/Ack included) as
// the RDMA path, so the seq-ack window spans both transports: a cutover
// in either direction replays the unacked tail and the receiver's window
// dedups whatever already made it across — exactly-once, both directions.
//
// What rides the fallback is the message protocol — windowed messages, all
// inline, and header-only control frames — and nothing that pretends to be an
// RNIC: one-sided verbs answer ErrNoPath on a mocked channel (onesided.go).

// listenMock accepts fallback connections. The hello names its link by
// identity (named), and that link switches whatever MockEnabled says, which
// arms only the automatic fallback: one on the fallback takes the conn (in
// place of one that died on the peer's side first), a live or degraded one
// follows the peer's switch (failure detection is not synchronized, and a
// peer may ForceMock). A hello that names no link, or that this build cannot
// read, is closed at once: nothing here will ever claim it, and the dialer
// counts a refused attempt (attachMock).
func (c *Context) listenMock() {
	c.tcp.Listen(c.mockPort, func(conn *tcpnet.Conn) {
		conn.OnMessage = func(m tcpnet.Message) {
			var l *link
			if h, v := c.readHello(conn.Remote, m.Data); v == helloOK && h.purpose == helloMock {
				l = c.named(conn.Remote, h)
			}
			switch {
			case l == nil:
				conn.Close()
				return
			case l.state == linkFallback:
				l.closeFallback()
			default:
				l.riders[0].enterMockMode()
			}
			l.riders[0].attachMock(conn, 0)
		}
	})
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

	// Release RDMA resources: the QP leaves the QPN table and recycles through
	// the cache, then its receive pool returns to the memory cache. The link
	// holds no QP on the fallback, so the XR-Stat row goes with it (hasRow) —
	// the recycled QPN may soon host a new channel.
	ch.quiesce()
	ch.lk.giveBack()
}

// connectMock runs the mock rendezvous for a channel already in mock
// mode: the lower node ID dials, the higher one waits for the conn.
func (ch *Channel) connectMock(cause error) {
	c := ch.ctx
	if ch.lk.dialer {
		ch.mockDial(cause, 0)
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

// mockDial is the dialer side of the mock rendezvous; attempt counts the
// failed attempts before it.
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
			ch.attachMock(conn, attempt)
			return
		}
		ch.mockRetry(cause, attempt, err)
	})
}

// mockRetry redials after a failed attempt — a dial that failed, or a conn
// closed before any frame came back — with exponential backoff, and tears the
// channel down once mockDialRetries attempts in a row have failed: a single
// failure (the peer's listener mid-restart, a dropped SYN) must not turn a
// transient race into a hard teardown, and a peer that holds no link by the
// hello's name must not keep the channel waiting forever.
func (ch *Channel) mockRetry(cause error, attempt int, err error) {
	if attempt+1 >= mockDialRetries {
		ch.teardown(fmt.Errorf("xrdma: mock rendezvous failed after %d attempts: %v (after %v)", attempt+1, err, cause))
		return
	}
	ch.ctx.eng.AfterBg(mockDialBackoff<<uint(attempt), func() {
		if ch.closed || ch.lk.state != linkFallback || ch.lk.fb != nil {
			return
		}
		ch.mockDial(cause, attempt+1)
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

// attachMock makes conn the fallback link's transport; attempt is the
// dialer's count of failed attempts before it (mockDial).
func (ch *Channel) attachMock(conn *tcpnet.Conn, attempt int) {
	c, l := ch.ctx, ch.lk
	l.fb = conn
	heard := false // a frame came back: the peer took the conn
	conn.OnMessage = func(m tcpnet.Message) {
		heard = true
		l.ingest(m.Data, 0, true, nil)
	}
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
		switch {
		case c.recoverPort <= 0:
			ch.teardown(cause)
		case l.dialer && !heard:
			// Refused, most likely: the peer holds no link by this name.
			ch.mockRetry(cause, attempt, err)
		default:
			// The fallback plane hiccupped but the channel can survive:
			// re-run the mock rendezvous.
			ch.connectMock(cause)
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
