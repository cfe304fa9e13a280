// Package tcpnet models a kernel TCP/IP stack over the same fabric the
// RNICs use. It exists for two of the paper's comparison points: TCP's
// ~100 µs connection establishment versus rdma_cm's milliseconds (§III
// Issue 3), and the Mock mechanism that temporarily switches a channel
// from RDMA to TCP during network anomalies (§VI-C).
//
// The stack is deliberately simple — message-oriented, fixed kernel-path
// costs, no congestion control — because its role is functional and
// comparative, not a TCP study. It relies on the PFC-lossless fabric for
// delivery and asserts in-order arrival per connection.
package tcpnet

import (
	"errors"
	"fmt"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// Kernel-path costs: syscall, data copies, protocol processing and softirq
// wakeups on both sides — the usual several-microsecond overheads that
// motivate kernel bypass in the first place (§II-A).
const (
	sendSyscall sim.Duration = 6 * sim.Microsecond   // user→kernel: syscall + copy + segmentation
	recvPath    sim.Duration = 9 * sim.Microsecond   // interrupt + stack + copy + wakeup
	copyPerKB   sim.Duration = 80 * sim.Nanosecond   // added copy cost per KiB of payload
	mss         int          = 4096                  // payload bytes per segment
	dialTimeout sim.Duration = 100 * sim.Millisecond // fails a connect whose handshake never completes
)

// ErrDialTimeout is returned when the handshake never completes.
var ErrDialTimeout = errors.New("tcpnet: dial timeout")

// Errors surfaced to connection callbacks.
var (
	ErrRefused = errors.New("tcpnet: connection refused")
	ErrClosed  = errors.New("tcpnet: connection closed")
	ErrReset   = errors.New("tcpnet: connection reset (segment loss)")
)

// Message is what OnMessage delivers.
type Message struct {
	Data []byte
	Len  int
}

// Stack is one node's TCP endpoint.
type Stack struct {
	Node fabric.NodeID
	eng  *sim.Engine
	host *fabric.Host

	alive     bool
	listeners map[int]func(*Conn)
	conns     map[connKey]*Conn
	nextPort  int

	// Counters.
	MsgsSent, MsgsRecv int64
	BytesSent          int64
}

type connKey struct {
	localPort  int
	remote     fabric.NodeID
	remotePort int
}

// segment is the wire payload.
type segment struct {
	kind    uint8 // 0 data, 1 SYN, 2 SYNACK, 3 ACK(handshake), 4 FIN, 7 RST
	srcPort int
	dstPort int
	seq     uint64
	msgLen  int
	offset  int
	last    bool
	data    []byte
}

// New attaches a TCP stack to a host.
func New(eng *sim.Engine, host *fabric.Host) *Stack {
	s := &Stack{
		Node: host.ID, eng: eng, host: host, alive: true,
		listeners: make(map[int]func(*Conn)),
		conns:     make(map[connKey]*Conn),
		nextPort:  40000,
	}
	host.AttachProto(fabric.ProtoTCP, s)
	return s
}

// Crash silences the stack (machine failure).
func (s *Stack) Crash() { s.alive = false }

// Revive restores it.
func (s *Stack) Revive() { s.alive = true }

// Listen accepts connections on port.
func (s *Stack) Listen(port int, accept func(*Conn)) error {
	if _, dup := s.listeners[port]; dup {
		return fmt.Errorf("tcpnet: port %d in use", port)
	}
	s.listeners[port] = accept
	return nil
}

// Unlisten releases a port so a restarted middleware instance on the same
// node can re-register its listener. Unknown ports are a no-op.
func (s *Stack) Unlisten(port int) {
	delete(s.listeners, port)
}

// Conn is one established, message-oriented connection.
type Conn struct {
	stack      *Stack
	key        connKey
	Remote     fabric.NodeID
	RemotePort int

	open    bool
	sendSeq uint64
	recvSeq uint64
	partial []byte
	// The kernel-path cost grows with message size, so a small message
	// would finish its copy before a large one queued ahead of it: each
	// direction runs no earlier than its predecessor on this conn.
	sendAt, deliverAt sim.Time

	OnMessage func(Message)
	OnClose   func(error)

	// dialDone is stashed on the dialing side until the SYNACK arrives.
	dialDone func(*Conn, error)
}

// EstablishTime is exported for the establishment benchmarks: handshake
// plus listen-side accept cost, ~100 µs end to end on a quiet fabric.
const EstablishTime = 100 * sim.Microsecond

// Dial opens a connection; done fires when established (three-way
// handshake plus a fixed kernel setup cost calibrated to ~100 µs).
func (s *Stack) Dial(remote fabric.NodeID, port int, done func(*Conn, error)) {
	local := s.nextPort
	s.nextPort++
	key := connKey{localPort: local, remote: remote, remotePort: port}
	c := &Conn{stack: s, key: key, Remote: remote, RemotePort: port}
	s.conns[key] = c
	c.dialDone = done
	// SYN after kernel socket setup; the rest of the ~100µs is the
	// handshake RTTs and accept-side processing.
	s.eng.After(40*sim.Microsecond, func() {
		s.send(remote, &segment{kind: 1, srcPort: local, dstPort: port}, 1)
	})
	s.eng.AfterBg(dialTimeout, func() {
		if c.dialDone != nil {
			cb := c.dialDone
			c.dialDone = nil
			delete(s.conns, key)
			cb(nil, ErrDialTimeout)
		}
	})
}

func (s *Stack) send(to fabric.NodeID, seg *segment, size int) {
	if !s.alive {
		return
	}
	p := s.host.Fabric().NewPacket()
	p.Src, p.Dst, p.Size, p.Proto = s.Node, to, size, fabric.ProtoTCP
	p.FlowHash = uint64(seg.srcPort)<<16 ^ uint64(seg.dstPort) ^ uint64(to)<<32 ^ uint64(s.Node)<<48
	p.Payload = seg
	s.host.Send(p)
}

// Send transmits one message; cb (optional) fires when the last byte hits
// the wire (kernel buffer semantics, not delivery acknowledgement).
func (c *Conn) Send(data []byte, length int, cb func(error)) {
	s := c.stack
	if !c.open {
		if cb != nil {
			cb(ErrClosed)
		}
		return
	}
	if data != nil {
		length = len(data)
	}
	cost := sendSyscall + sim.Duration(int64(length)/1024)*copyPerKB
	c.sendAt = max(c.sendAt, s.eng.Now().Add(cost))
	s.eng.At(c.sendAt, func() {
		if !c.open {
			if cb != nil {
				cb(ErrClosed)
			}
			return
		}
		off := 0
		for {
			seg := min(length-off, mss)
			sg := &segment{
				kind: 0, srcPort: c.key.localPort, dstPort: c.key.remotePort,
				seq: c.sendSeq, msgLen: length, offset: off, last: off+seg >= length,
			}
			if data != nil {
				sg.data = data[off : off+seg]
			}
			c.sendSeq++
			s.send(c.Remote, sg, seg+40)
			off += seg
			if sg.last {
				break
			}
		}
		s.MsgsSent++
		s.BytesSent += int64(length)
		if cb != nil {
			cb(nil)
		}
	})
}

// Close tears the connection down and notifies the peer.
func (c *Conn) Close() {
	if !c.open {
		return
	}
	c.open = false
	c.stack.send(c.Remote, &segment{kind: 4, srcPort: c.key.localPort, dstPort: c.key.remotePort}, 40)
	delete(c.stack.conns, c.key)
	if c.OnClose != nil {
		c.OnClose(nil)
	}
}

func (c *Conn) teardown(err error) {
	if !c.open {
		return
	}
	c.open = false
	delete(c.stack.conns, c.key)
	if c.OnClose != nil {
		c.OnClose(err)
	}
}

// Open reports whether the connection is usable.
func (c *Conn) Open() bool { return c.open }

// --- receive ---------------------------------------------------------------

// HandlePacket implements fabric.Endpoint.
func (s *Stack) HandlePacket(p *fabric.Packet) {
	if !s.alive {
		return
	}
	seg, ok := p.Payload.(*segment)
	if !ok {
		return
	}
	switch seg.kind {
	case 1: // SYN
		accept, ok := s.listeners[seg.dstPort]
		if !ok {
			s.send(p.Src, &segment{kind: 7, srcPort: seg.dstPort, dstPort: seg.srcPort}, 40)
			return
		}
		src := p.Src // p is recycled before the deferred work runs
		key := connKey{localPort: seg.dstPort, remote: src, remotePort: seg.srcPort}
		c := &Conn{stack: s, key: key, Remote: src, RemotePort: seg.srcPort, open: true}
		s.conns[key] = c
		// Accept-side kernel work before SYNACK.
		s.eng.After(25*sim.Microsecond, func() {
			s.send(src, &segment{kind: 2, srcPort: c.key.localPort, dstPort: c.key.remotePort}, 40)
			accept(c)
		})
	case 2: // SYNACK
		src := p.Src // p is recycled before the deferred work runs
		key := connKey{localPort: seg.dstPort, remote: src, remotePort: seg.srcPort}
		c := s.conns[key]
		if c == nil || c.open {
			return
		}
		s.eng.After(25*sim.Microsecond, func() {
			c.open = true
			s.send(src, &segment{kind: 3, srcPort: c.key.localPort, dstPort: c.key.remotePort}, 40)
			if c.dialDone != nil {
				done := c.dialDone
				c.dialDone = nil
				done(c, nil)
			}
		})
	case 3: // handshake ACK — nothing further needed
	case 7: // RST
		key := connKey{localPort: seg.dstPort, remote: p.Src, remotePort: seg.srcPort}
		if c := s.conns[key]; c != nil {
			if c.dialDone != nil {
				done := c.dialDone
				c.dialDone = nil
				delete(s.conns, key)
				done(nil, ErrRefused)
				return
			}
			c.teardown(ErrClosed)
		}
	case 4: // FIN
		key := connKey{localPort: seg.dstPort, remote: p.Src, remotePort: seg.srcPort}
		if c := s.conns[key]; c != nil {
			c.teardown(ErrClosed)
		}
	case 0: // data
		key := connKey{localPort: seg.dstPort, remote: p.Src, remotePort: seg.srcPort}
		c := s.conns[key]
		if c == nil || !c.open {
			return
		}
		if seg.seq != c.recvSeq {
			// A gap means segments died on the wire (a downed link or
			// failed switch flushed them). The model has no retransmit,
			// so behave like a hard reset: RST the sender and tear down.
			// Layers above (the Mock channel) own reconnection.
			s.send(p.Src, &segment{kind: 7, srcPort: seg.dstPort, dstPort: seg.srcPort}, 40)
			c.teardown(ErrReset)
			return
		}
		c.recvSeq++
		if seg.offset == 0 {
			if seg.data != nil {
				c.partial = make([]byte, seg.msgLen)
			} else {
				c.partial = nil
			}
		}
		if seg.data != nil && c.partial != nil {
			copy(c.partial[seg.offset:], seg.data)
		}
		if !seg.last {
			return
		}
		s.MsgsRecv++
		data := c.partial
		c.partial = nil
		msgLen := seg.msgLen
		cost := recvPath + sim.Duration(int64(msgLen)/1024)*copyPerKB
		c.deliverAt = max(c.deliverAt, s.eng.Now().Add(cost))
		s.eng.At(c.deliverAt, func() {
			if c.open && c.OnMessage != nil {
				c.OnMessage(Message{Data: data, Len: msgLen})
			}
		})
	}
}
