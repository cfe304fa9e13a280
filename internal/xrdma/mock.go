package xrdma

import (
	"fmt"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/telemetry"
)

// Mock (§VI-C): when the RDMA path collapses — heavy anomaly, protocol
// stack failure, broken QP — a channel can temporarily switch to the TCP
// network, keeping the application's message flow alive at degraded
// performance. The side with the lower node ID dials the peer's mock
// port; the other side waits for the inbound connection and matches it to
// the broken channel by QPN.
//
// The mock transport carries the same wire headers (Seq/Ack included) as
// the RDMA path, so the seq-ack window spans both transports: a cutover
// in either direction replays the unacked tail and the receiver's window
// dedups whatever already made it across — exactly-once, both directions.

type mockState struct {
	conn    *tcpnet.Conn
	ready   bool
	waiting bool
}

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
			qpn := h.target
			// Find the waiting channel that owned this QPN.
			for _, ch := range c.mockWaiters {
				if ch.mockQPN == qpn {
					ch.attachMock(conn)
					return
				}
			}
			// The peer switched but this side's channel is still live or
			// degraded (failure detection is not synchronized): adopt the
			// switch. The recovery index resolves QPNs from adoptions ago.
			ch := c.channels[qpn]
			if l := c.linkIdx[qpn]; ch == nil && l != nil {
				ch, _ = l.own.(*Channel)
			}
			if ch != nil && !ch.closed && c.cfg.MockEnabled {
				if ch.mock != nil {
					// Redial of an already-mocked channel (the old conn
					// died on the peer's side first).
					if old := ch.mock.conn; old != nil && old != conn {
						old.OnClose = nil
						old.Close()
						ch.mock.conn = nil
						ch.mock.ready = false
					}
					ch.attachMock(conn)
					return
				}
				ch.enterMockMode(fmt.Errorf("peer-initiated mock switch"))
				ch.attachMock(conn)
				return
			}
			c.parkMockConn(qpn, conn)
		}
	})
}

type parkedMock struct {
	qpn  uint32
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
func (c *Context) parkMockConn(qpn uint32, conn *tcpnet.Conn) {
	p := &parkedMock{qpn: qpn, conn: conn}
	c.mockParked = append(c.mockParked, p)
	conn.OnMessage = func(m tcpnet.Message) {
		b := make([]byte, len(m.Data))
		copy(b, m.Data)
		p.buf = append(p.buf, b)
	}
	conn.OnClose = func(error) {
		for i, q := range c.mockParked {
			if q == p {
				c.mockParked = append(c.mockParked[:i], c.mockParked[i+1:]...)
				return
			}
		}
	}
	grace := c.mockGrace()
	c.eng.AfterBg(grace, func() {
		for i, q := range c.mockParked {
			if q == p {
				c.mockParked = append(c.mockParked[:i], c.mockParked[i+1:]...)
				conn.OnClose = nil
				conn.Close()
				return
			}
		}
	})
}

// claimParkedMock is called when a channel enters mock-waiting state: an
// early-arriving peer connection may already be parked. Dead parked conns
// (closed between the OnClose callback and now) are discarded.
func (c *Context) claimParkedMock(qpn uint32) *parkedMock {
	for i := 0; i < len(c.mockParked); i++ {
		p := c.mockParked[i]
		if p.qpn != qpn {
			continue
		}
		c.mockParked = append(c.mockParked[:i], c.mockParked[i+1:]...)
		p.conn.OnClose = nil
		if p.conn.Open() {
			return p
		}
		i--
	}
	return nil
}

// enterMockMode releases a channel's RDMA resources; the send queue and
// the unacked window tail stay with the channel and replay over the mock
// transport once it attaches.
func (ch *Channel) enterMockMode(cause error) {
	c := ch.ctx
	c.Stats.MockSwitches++
	now := c.eng.Now()
	c.tel.Flight.Trip(now, telemetry.CatMockSwitch, int32(c.Node()), ch.QPN())
	c.tel.Trace.Instant("mock.switch", c.track, now, int64(ch.Peer))
	c.logf("channel qpn=%d peer=%d switching to TCP mock (%v)", ch.QPN(), ch.Peer, cause)

	ch.mock = &mockState{}
	ch.setHealth(HealthFallback)
	ch.lk.state = linkFallback
	ch.lk.epoch++ // strand any in-flight replacement dial
	ch.resumeOnRx = false

	// Staged rendezvous payloads are RDMA-only; the mock transport sends
	// every message inline from ps.data, so release them — both the
	// unsent queue and the transmitted-but-unacked tail a cutover will
	// replay.
	unstage := func(ps *pendingSend) {
		if ps.staged.Valid() {
			c.Mem.Free(ps.staged)
			ps.staged = Buffer{}
		}
		ps.ready = false
		ps.staging = false
	}
	for _, ps := range ch.sendQ {
		unstage(ps)
	}
	for _, ps := range ch.sent {
		unstage(ps)
	}

	// Release RDMA resources: the QP recycles through the cache, the
	// receive buffers return to the memory cache. The XR-Stat row goes
	// with them — the recycled QPN may soon host a new channel. The peer
	// names this channel by the QPN it leaves the table under.
	ch.unregisterGauges()
	ch.mockQPN = ch.leaveTable()
	ch.quiesce()
	c.QPs.Put(ch.qp)
}

// switchToMock degrades a failing channel onto TCP instead of killing it.
func (ch *Channel) switchToMock(cause error) {
	ch.enterMockMode(cause)
	ch.connectMock(cause)
}

// connectMock runs the mock rendezvous for a channel already in mock
// mode: the lower node ID dials, the higher one waits (claiming an
// early-parked conn if the dialer beat it here).
func (ch *Channel) connectMock(cause error) {
	c := ch.ctx
	if c.Node() < ch.Peer {
		ch.mockDial(cause, 0)
		return
	}
	if p := c.claimParkedMock(ch.mockQPN); p != nil {
		ch.attachMock(p.conn)
		// Deliver frames the dialer sent while the conn sat parked, in
		// arrival order; the window dedups anything replayed again later.
		for _, b := range p.buf {
			if ch.mock == nil || ch.mock.conn != p.conn {
				break
			}
			ch.mockInbound(tcpnet.Message{Data: b, Len: len(b)})
		}
		return
	}
	ch.mock.waiting = true
	c.mockWaiters = append(c.mockWaiters, ch)
	// Give the dialer a bounded window; a vanished peer must not leak a
	// parked channel. Failure detection on the two sides can differ by a
	// full RC retry horizon, so the window must cover at least two.
	wait := c.mockGrace()
	c.eng.AfterBg(wait, func() {
		if !ch.closed && ch.mock != nil && ch.mock.waiting {
			ch.teardown(fmt.Errorf("xrdma: mock fallback never connected (after %v)", cause))
		}
	})
}

// mockDial is the dialer side of the mock rendezvous, retried with
// exponential backoff: a single failed dial (the peer's listener mid-
// restart, a dropped SYN) used to be terminal, turning transient races
// into hard teardowns.
func (ch *Channel) mockDial(cause error, attempt int) {
	c := ch.ctx
	c.tcp.Dial(ch.Peer, c.peerMockPort(ch.Peer), func(conn *tcpnet.Conn, err error) {
		if ch.closed || ch.mock == nil || ch.mock.ready {
			if err == nil {
				conn.Close()
			}
			return
		}
		if err == nil {
			conn.Send(hello{purpose: helloMock, target: ch.lk.peerQPN}.encode(), 0, nil)
			ch.attachMock(conn)
			return
		}
		retries := c.cfg.MockDialRetries
		if retries < 1 {
			retries = 1
		}
		if attempt+1 >= retries {
			ch.teardown(fmt.Errorf("xrdma: mock dial failed after %d attempts: %v (after %v)", attempt+1, err, cause))
			return
		}
		backoff := c.cfg.MockDialBackoff << uint(attempt)
		if backoff <= 0 {
			backoff = sim.Millisecond
		}
		c.eng.AfterBg(backoff, func() {
			if ch.closed || ch.mock == nil || ch.mock.ready {
				return
			}
			ch.mockDial(cause, attempt+1)
		})
	})
}

// mockGrace bounds how long one side waits for the other to notice the
// failure: two RC retry horizons, or the keepalive timeout if larger.
func (c *Context) mockGrace() sim.Duration {
	nic := &c.vctx.NIC.Cfg
	g := 2 * sim.Duration(nic.RetryLimit+2) * nic.RetransTimeout
	if 2*c.cfg.KeepaliveTimeout > g {
		g = 2 * c.cfg.KeepaliveTimeout
	}
	return g
}

// peerMockPort assumes a fleet-wide mock port convention (same port
// everywhere), which is how production config rolls out.
func (c *Context) peerMockPort(_ fabric.NodeID) int { return c.mockPort }

func (ch *Channel) attachMock(conn *tcpnet.Conn) {
	c := ch.ctx
	if ch.mock == nil {
		ch.mock = &mockState{}
	}
	// Remove from waiters if present.
	for i, w := range c.mockWaiters {
		if w == ch {
			c.mockWaiters = append(c.mockWaiters[:i], c.mockWaiters[i+1:]...)
			break
		}
	}
	ch.mock.conn = conn
	ch.mock.ready = true
	ch.mock.waiting = false
	conn.OnMessage = func(m tcpnet.Message) { ch.mockInbound(m) }
	conn.OnClose = func(err error) {
		if ch.closed || ch.mock == nil || ch.mock.conn != conn {
			return
		}
		ch.mock.conn = nil
		ch.mock.ready = false
		if ch.health == HealthRecovering {
			// A failback probe is in flight; its completion decides
			// whether to adopt RDMA or rebuild the mock conn.
			return
		}
		if c.recoverPort > 0 {
			// The fallback plane hiccupped but the channel can survive:
			// re-run the mock rendezvous.
			ch.connectMock(fmt.Errorf("xrdma: mock transport closed: %v", err))
			return
		}
		ch.teardown(fmt.Errorf("xrdma: mock transport closed: %v", err))
	}
	ch.setHealth(HealthFallback)
	// Replay the unacked window tail (the receiver's window dedups), then
	// drain whatever queued while disconnected.
	ch.requeueUnacked()
	ch.armFailback()
	ch.pump()
}

func (ch *Channel) mockInbound(m tcpnet.Message) {
	h, hdrLen, err := decodeHdr(m.Data)
	if err != nil {
		return
	}
	var pay []byte
	if size := int(h.Size); size > 0 && m.Data != nil && len(m.Data) >= hdrLen+size {
		pay = m.Data[hdrLen : hdrLen+size]
	}
	ch.handleWire(&h, pay, true, nil)
}

// Mocked reports whether the channel is running over the TCP fallback.
func (ch *Channel) Mocked() bool { return ch.mock != nil }

// ForceMock switches a healthy channel to TCP (the manual tuning-system
// toggle). Requires MockEnabled and a TCP stack.
func (ch *Channel) ForceMock() error {
	if ch.ctx.tcp == nil || ch.ctx.mockPort == 0 {
		return fmt.Errorf("xrdma: mock plane not configured")
	}
	if ch.mock != nil || ch.closed {
		return nil
	}
	ch.switchToMock(fmt.Errorf("manual switch"))
	return nil
}

func (ch *Channel) closeMock() {
	if ch.mock != nil && ch.mock.conn != nil {
		conn := ch.mock.conn
		ch.mock.conn = nil
		conn.OnClose = nil
		conn.Close()
	}
}
