package xrdma

import (
	"encoding/binary"

	"xrdma/internal/fabric"
	"xrdma/internal/telemetry"
	"xrdma/internal/verbs"
)

// Establishment hellos and protocol version negotiation (hot-upgrade
// plane). X-RDMA's header was designed so the middleware can roll through a
// fleet without a synchronized restart: mixed-version clusters are a
// first-class operating mode. Both sides of an establishment settle on the
// highest common version and the intersection of their capability bitmaps,
// and every optional wire extension is gated per link on the settled caps —
// a v2 node emits v1 frames to v1 peers, and a disjoint version range is a
// counted, flight-logged negotiation failure instead of a corruption-shaped
// error.

// Capability bits advertised in the hello. A bit names an optional wire
// extension (or verb family) the sender is willing to receive; a channel
// only emits an extension when the peer advertised the matching bit.
const (
	capBlame     uint32 = 1 << iota // blame stage-mirror extension on responses
	capTenant                       // tenant label extension on data frames
	capOneSided                     // one-sided verbs (WIN_GRANT / READ / WRITE+imm)
	capDrainHint                    // v2-only: drain state piggybacked in hellos
)

// baselineCaps is what a peer that sent no hello (a pre-negotiation build,
// or one configured to the legacy v1 plane) is assumed to accept: every
// extension that existed before negotiation did. capDrainHint is excluded
// — it is the v2 carrot, only ever granted by an explicit hello.
const baselineCaps uint32 = capBlame | capTenant | capOneSided

// Every establishment the middleware performs — CM private data on any
// listener, the REP that answers it, and the first frame of a TCP fallback
// conn — speaks one hello:
//
//	magic(2) | fmt(1) | purpose(1) | purpose body | [minVer(1) maxVer(1) caps(4)]
//
// The fmt byte is what future layouts key on; the purpose says what the
// dialer wants and fixes the body; the negotiation block rides only the
// establishment hellos (open, mux-slot) of a context that offers more than
// v1, and the REP that settles them. The default v1 exclusive plane sends
// no private data at all — its length feeds packet sizes and therefore the
// golden digests.
const (
	helloMagic   = 0x4c58 // "XL"
	helloFmt     = 1
	helloHdrSize = 4
	helloNegSize = 6
)

type helloPurpose uint8

const (
	helloOpen        helloPurpose = iota + 1 // exclusive-QP channel (also every REP verdict); no body
	helloMuxSlot                             // fresh shared QP: slot(2)
	helloMuxReattach                         // replacement for a broken shared QP: identity(12)
	helloRecover                             // replacement for a broken exclusive QP: identity(12)
	helloMock                                // TCP fallback for a broken exclusive QP: identity(12)
)

// helloBodySize is the fixed body length per purpose (index 0 = unknown).
var helloBodySize = [...]int{helloOpen: 0, helloMuxSlot: 2, helloMuxReattach: 12, helloRecover: 12, helloMock: 12}

// offer is a negotiation range: the header versions a build speaks and the
// extensions it accepts. A verdict reuses the shape with minVer == maxVer
// == the settled version and caps == the intersection.
type offer struct {
	minVer, maxVer uint8
	caps           uint32
}

// hello is the decoded form. The identity triple, the body of every hello that
// names a broken link (a redial's or a Mock rendezvous'), names it three ways: target is the listener-side QPN the dialer last saw (the
// fast recovery-index key), target0/dialer0 the immutable establishment
// pair — the listener's and the dialer's first QPN. Local QPNs recycle
// through the QP cache, so with several links to one peer the index entry
// for a recycled QPN can come to name a sibling; only the establishment
// pair, which no adoption rewrites, says whose protocol state a dial owns.
type hello struct {
	purpose                  helloPurpose
	slot                     uint16
	target, target0, dialer0 uint32
	neg                      bool // negotiation block present
	offer
}

func (h hello) encode() []byte {
	le := binary.LittleEndian
	b := make([]byte, helloHdrSize, helloHdrSize+12+helloNegSize)
	le.PutUint16(b, helloMagic)
	b[2], b[3] = helloFmt, byte(h.purpose)
	switch h.purpose {
	case helloMuxSlot:
		b = le.AppendUint16(b, h.slot)
	case helloMuxReattach, helloRecover, helloMock:
		b = le.AppendUint32(le.AppendUint32(le.AppendUint32(b, h.target), h.target0), h.dialer0)
	}
	if h.neg {
		b = le.AppendUint32(append(b, h.minVer, h.maxVer), h.caps)
	}
	return b
}

// helloVerdict classifies peer-controlled establishment bytes.
type helloVerdict uint8

const (
	helloNone    helloVerdict = iota // not a hello: a legacy peer (v1 + baselineCaps)
	helloOK                          // well-formed
	helloUnknown                     // our magic, but a fmt/purpose/length this build does not speak
)

// parseHello never guesses: bytes under our magic either decode fully or
// get the loud verdict, which every caller counts and rejects. Bytes past
// the negotiation block are ignored; a partial block is malformed.
func parseHello(b []byte) (hello, helloVerdict) {
	le := binary.LittleEndian
	if len(b) < helloHdrSize || le.Uint16(b) != helloMagic {
		return hello{}, helloNone
	}
	h := hello{purpose: helloPurpose(b[3])}
	if b[2] != helloFmt || h.purpose == 0 || int(h.purpose) >= len(helloBodySize) {
		return h, helloUnknown
	}
	p := b[helloHdrSize:]
	if len(p) < helloBodySize[h.purpose] {
		return h, helloUnknown
	}
	switch h.purpose {
	case helloMuxSlot:
		h.slot = le.Uint16(p)
	case helloMuxReattach, helloRecover, helloMock:
		h.target, h.target0, h.dialer0 = le.Uint32(p), le.Uint32(p[4:]), le.Uint32(p[8:])
	}
	switch p = p[helloBodySize[h.purpose]:]; {
	case len(p) == 0:
	case len(p) < helloNegSize:
		return h, helloUnknown
	default:
		h.neg = true
		h.offer = offer{minVer: p[0], maxVer: p[1], caps: le.Uint32(p[2:])}
	}
	return h, helloOK
}

// readHello is parseHello for listeners: the loud verdict is counted and
// flight-logged here (the fmt byte stands in for the peer's version), so
// no caller can drop a foreign hello silently.
func (c *Context) readHello(from fabric.NodeID, b []byte) (hello, helloVerdict) {
	h, v := parseHello(b)
	if v == helloUnknown {
		c.noteVerMismatch(from, 0, b[2], b[2])
	}
	return h, v
}

// negotiate settles two offers: the highest version inside both ranges and
// the AND of the capability sets. ok is false when the ranges are disjoint
// — the caller must refuse the connection loudly (never silently downgrade
// below a peer's stated minimum).
func negotiate(a, b offer) (ver uint8, caps uint32, ok bool) {
	hi, lo := min(a.maxVer, b.maxVer), max(a.minVer, b.minVer)
	if hi < lo {
		return 0, 0, false
	}
	return hi, a.caps & b.caps, true
}

// protoMax is the highest header version this context offers, clamped to
// what the build actually decodes. A zero ProtoVerMax means the legacy v1 plane.
func (c *Context) protoMax() uint8 {
	if c.cfg.ProtoVerMax > 0 {
		return min(uint8(c.cfg.ProtoVerMax), hdrVersionMax)
	}
	return hdrVersion
}

// localOffer is the range this context dials and listens with: every build
// still speaks v1, so the range starts there.
func (c *Context) localOffer() offer {
	o := offer{minVer: hdrVersion, maxVer: c.protoMax(), caps: baselineCaps}
	if o.maxVer > hdrVersion {
		// A v2-capable node offers the drain hint on top of the baseline.
		o.caps |= capDrainHint
	}
	return o
}

// dialHello is the private data of an establishment dial (open, mux-slot):
// the hello plus this context's offer when it speaks more than v1. A plain
// open on the v1 plane has nothing to say and sends nothing.
func (c *Context) dialHello(h hello) []byte {
	if o := c.localOffer(); o.maxVer > hdrVersion {
		h.neg, h.offer = true, o
	} else if h.purpose == helloOpen {
		return nil
	}
	return h.encode()
}

// settle negotiates against an inbound hello. No negotiation block marks a
// legacy peer: v1 + baselineCaps, always ok. When the peer did offer, the
// settled verdict is returned as the REP private data (nil otherwise — a
// legacy dialer gets the byte-identical legacy REP).
func (c *Context) settle(req *verbs.ConnReq, h hello) (ver uint8, caps uint32, ok bool) {
	peer := h.offer
	if !h.neg {
		peer = offer{minVer: hdrVersion, maxVer: hdrVersion, caps: baselineCaps}
	}
	if ver, caps, ok = negotiate(c.localOffer(), peer); !ok {
		c.noteVerMismatch(req.From, 0, peer.minVer, peer.maxVer)
		req.Reject(errVersion.Error())
	} else if h.neg {
		req.ReplyData = hello{purpose: helloOpen, neg: true, offer: offer{ver, ver, caps}}.encode()
	}
	return ver, caps, ok
}

// noteVerMismatch counts a negotiation failure (or an inbound frame with a
// version outside our range) and records it in the flight recorder — the
// operator-visible difference between "peer runs a foreign release" and
// corruption.
func (c *Context) noteVerMismatch(peer fabric.NodeID, qpn uint32, peerLo, peerHi uint8) {
	c.Stats.VerMismatches++
	c.tel.Flight.Record(c.eng.Now(), telemetry.CatVerMismatch, int32(c.Node()), qpn,
		int64(peer), int64(peerLo)|int64(peerHi)<<8|int64(hdrVersion)<<16|int64(c.protoMax())<<24)
}

// NegotiatedVersion reports the header version this channel's link settled
// on (hdrVersion when the peer is a legacy build, negotiation never ran, or
// the channel is still an unattached descriptor).
func (ch *Channel) NegotiatedVersion() uint8 {
	if ch.lk == nil || ch.lk.ver == 0 {
		return hdrVersion
	}
	return ch.lk.ver
}

// PeerCaps reports the effective capability set for this channel.
func (ch *Channel) PeerCaps() uint32 {
	if ch.lk == nil || (ch.lk.ver == 0 && ch.lk.caps == 0) {
		return baselineCaps
	}
	return ch.lk.caps
}

// peerCap gates an optional wire extension on the settled capability set.
func (ch *Channel) peerCap(bit uint32) bool {
	return ch.PeerCaps()&bit != 0
}

// adoptVerdict consumes the responder's REP private data on the dialing
// side: a hello carrying a negotiation block is the settled verdict,
// anything else marks a legacy responder (0/0 = v1 + baselineCaps).
func (l *link) adoptVerdict(pdata []byte) {
	if h, v := parseHello(pdata); v == helloOK && h.neg {
		l.ver, l.caps = h.maxVer, h.caps
	}
}
