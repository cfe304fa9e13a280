package xrdma

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// X-RDMA reconstructs the payload so that every message carries a header
// inside it (§VI-A). The header is a fixed 64-byte block, followed by an
// optional 16-byte trace extension in req-rsp mode, followed by an
// optional 40-byte blame extension (responses to blame-sampled requests
// only), followed by the application payload (for inline messages).

const (
	hdrMagic   = 0x5852 // "XR"
	hdrVersion = 1
	// hdrVersionMax is the highest header version this build understands.
	// v2 frames share the v1 64-byte layout; the bump is a negotiation
	// handle — a channel only emits v2 (and the capabilities gated on it,
	// e.g. drain hints) after the hello handshake proves the peer accepts
	// it. decodeHdr accepts the whole [hdrVersion, hdrVersionMax] range so
	// mixed-version clusters interoperate without a synchronized restart.
	hdrVersionMax = 2

	hdrSize      = 64
	traceExtSize = 16
	// blameExtSize is the response-only stage mirror: the responder echoes
	// the request's fabric residency plus its own reassembly/handler time so
	// the requester can reconstruct the full causal path. Blame-sampled
	// requests add zero wire bytes; only their responses carry this block.
	blameExtSize = 40
	// tenantExtSize carries the sender's tenant label so a passive peer can
	// resolve the numeric tenant id against its own Config.Tenants table.
	// Only labelled channels set flagTenant; zero-tenant worlds never emit it.
	tenantExtSize = 8
	// tenantLabelMax bounds tenant names on the wire.
	tenantLabelMax = tenantExtSize
)

type msgKind uint8

const (
	kindReq       msgKind = iota // request, payload inline
	kindResp                     // response, payload inline
	kindAck                      // standalone ack (window-exempt)
	kindNop                      // deadlock breaker, solicits an ack
	kindLargeReq                 // rendezvous: request payload staged at sender
	kindLargeResp                // rendezvous: response payload staged at responder
	_                            // 6 is retired (READ_DONE); see below
	kindPing                     // middleware-level ping (XR-Ping)
	kindPong
	kindChanOpen   // mux plane: open a channel over a shared QP
	kindChanAccept // mux plane: accept reply carrying the acceptor's cid
	kindChanClose  // mux plane: peer tore its half of a muxed channel down
	kindMuxSick    // mux plane: responder asks the initiator to redial the shared QP
	kindPathHint   // path doctor: receiver-side symptoms implicate the peer's TX path
	kindWinGrant   // one-sided plane: peer exposes an MR window (Addr/RKey/Size, MsgID = window id)
	kindWinRevoke  // one-sided plane: peer withdrew a window (MsgID = window id)
	// Retired numbers are not free. 6 (READ_DONE) was a receiver's notice
	// that it had pulled a staged buffer; nothing emits or handles it. The
	// next three were emitted by a release that emulated READ/WRITE+imm over
	// the Mock conn. All four reach handleWire's default arm —
	// flight-recorded and dropped, never parsed.
)

// windowed reports whether this kind occupies a seq-ack window slot: the
// kinds that carry an application message. Everything else is a control
// frame — a bare header, window-exempt so acks can always flow. One-sided
// READ/WRITE are not frames at all: they are RNIC verbs and never touch the
// window (onesided.go).
func (k msgKind) windowed() bool {
	switch k {
	case kindReq, kindResp, kindLargeReq, kindLargeResp:
		return true
	}
	return false
}

const (
	flagTraced   = 1 << iota // trace extension present
	flagOneWay               // request wants no response
	flagBlame                // causal blame trace: responses carry the stage mirror
	_                        // 1<<3 is retired (a Mock-emulated READ's access error); reserved so flagTenant keeps its bit
	flagTenant               // tenant label extension present, Tenant field meaningful
	flagSizeOnly             // LARGE_REQ/LARGE_RESP: size-only payload, pull lengths (older decoders ignore it and pull bytes)
)

// wireHdr is the decoded header.
type wireHdr struct {
	Kind   msgKind
	Ver    uint8 // header version (0 encodes as hdrVersion; decode reports the peer's)
	Flags  uint16
	Seq    uint64  // window sequence (0 for window-exempt kinds)
	Ack    uint64  // piggybacked cumulative ack (receiver's RTA)
	MsgID  uint64  // request/response correlation
	Size   uint32  // application payload size
	Addr   uint64  // staged buffer address (rendezvous kinds)
	RKey   uint32  // staged buffer / window rkey
	Chan   uint32  // receiver-side channel id (QP multiplexing; 0 = exclusive QP)
	Tenant uint16  // sender's tenant id (0 = untenanted; meaningful with flagTenant)
	TLabel [8]byte // tenant label extension payload (flagTenant only)
	T1     int64   // trace: sender clock at send (req-rsp mode)

	// Blame extension (flagBlame responses): the responder's mirror of
	// remote stages, all in nanoseconds except BECN (a mark count).
	BQueue   int64 // request-direction switch egress-queue residency
	BPause   int64 // request-direction PFC pause share of that residency
	BReasm   int64 // receiver reassembly: first fragment at NIC → dispatch
	BHandler int64 // application handler: dispatch → response transmit
	BECN     int64 // request-direction ECN marks
}

// hasBlameExt reports whether the wire layout includes the blame block:
// only responses mirror stages back (requests carry just the flag).
func (h *wireHdr) hasBlameExt() bool {
	return h.Flags&flagBlame != 0 && h.Kind == kindResp
}

// hasTenantExt reports whether the wire layout includes the tenant label
// block. Unlike the blame mirror it is kind-agnostic: CHAN_OPEN and data
// frames both carry it when the sending channel is labelled.
func (h *wireHdr) hasTenantExt() bool {
	return h.Flags&flagTenant != 0
}

// encode writes the header (and trace extension when flagged) into buf and
// returns the number of bytes written.
func (h *wireHdr) encode(buf []byte) int {
	binary.LittleEndian.PutUint16(buf[0:], hdrMagic)
	if h.Ver == 0 {
		buf[2] = hdrVersion
	} else {
		buf[2] = h.Ver
	}
	buf[3] = byte(h.Kind)
	binary.LittleEndian.PutUint16(buf[4:], h.Flags)
	binary.LittleEndian.PutUint32(buf[6:], h.Size)
	binary.LittleEndian.PutUint64(buf[10:], h.Seq)
	binary.LittleEndian.PutUint64(buf[18:], h.Ack)
	binary.LittleEndian.PutUint64(buf[26:], h.MsgID)
	binary.LittleEndian.PutUint64(buf[34:], h.Addr)
	binary.LittleEndian.PutUint32(buf[42:], h.RKey)
	// Bytes 46..49 were reserved-zero until the mux plane claimed them, so
	// a zero Chan keeps the encoding byte-identical to the legacy layout.
	binary.LittleEndian.PutUint32(buf[46:], h.Chan)
	// Bytes 50..53 are reserved: a retired Mock WRITE+imm carried its
	// immediate there. Written zero, ignored on decode.
	binary.LittleEndian.PutUint32(buf[50:], 0)
	// Bytes 54..55 were padding until the tenancy plane claimed them for the
	// tenant id; a zero Tenant keeps the encoding byte-identical to before.
	binary.LittleEndian.PutUint16(buf[54:], h.Tenant)
	n := hdrSize
	if h.Flags&flagTraced != 0 {
		binary.LittleEndian.PutUint64(buf[hdrSize:], uint64(h.T1))
		n += traceExtSize
	}
	if h.hasBlameExt() {
		binary.LittleEndian.PutUint64(buf[n:], uint64(h.BQueue))
		binary.LittleEndian.PutUint64(buf[n+8:], uint64(h.BPause))
		binary.LittleEndian.PutUint64(buf[n+16:], uint64(h.BReasm))
		binary.LittleEndian.PutUint64(buf[n+24:], uint64(h.BHandler))
		binary.LittleEndian.PutUint64(buf[n+32:], uint64(h.BECN))
		n += blameExtSize
	}
	if h.hasTenantExt() {
		copy(buf[n:n+tenantExtSize], h.TLabel[:])
		n += tenantExtSize
	}
	return n
}

// wireBytes is the total header length for this message.
func (h *wireHdr) wireBytes() int {
	n := hdrSize
	if h.Flags&flagTraced != 0 {
		n += traceExtSize
	}
	if h.hasBlameExt() {
		n += blameExtSize
	}
	if h.hasTenantExt() {
		n += tenantExtSize
	}
	return n
}

// errBadHeader marks undecodable inbound messages (foreign traffic or
// corruption).
var errBadHeader = errors.New("xrdma: bad message header")

// errVersion marks a structurally sound header whose version this build
// does not speak. It is deliberately NOT errBadHeader: a fleet mid-upgrade
// must be able to tell "peer runs a future release" apart from corruption,
// so version mismatches get their own counter and flight category instead
// of being misdiagnosed as bitrot.
var errVersion = errors.New("xrdma: unsupported header version")

// decode parses a header from buf.
func decodeHdr(buf []byte) (h wireHdr, n int, err error) {
	if len(buf) < hdrSize {
		return h, 0, fmt.Errorf("%w: %d bytes", errBadHeader, len(buf))
	}
	if binary.LittleEndian.Uint16(buf[0:]) != hdrMagic {
		return h, 0, fmt.Errorf("%w: magic %#x", errBadHeader, binary.LittleEndian.Uint16(buf[0:]))
	}
	if buf[2] < hdrVersion || buf[2] > hdrVersionMax {
		return h, 0, fmt.Errorf("%w: version %d", errVersion, buf[2])
	}
	h.Ver = buf[2]
	h.Kind = msgKind(buf[3])
	h.Flags = binary.LittleEndian.Uint16(buf[4:])
	h.Size = binary.LittleEndian.Uint32(buf[6:])
	h.Seq = binary.LittleEndian.Uint64(buf[10:])
	h.Ack = binary.LittleEndian.Uint64(buf[18:])
	h.MsgID = binary.LittleEndian.Uint64(buf[26:])
	h.Addr = binary.LittleEndian.Uint64(buf[34:])
	h.RKey = binary.LittleEndian.Uint32(buf[42:])
	h.Chan = binary.LittleEndian.Uint32(buf[46:])
	h.Tenant = binary.LittleEndian.Uint16(buf[54:])
	n = hdrSize
	if h.Flags&flagTraced != 0 {
		if len(buf) < hdrSize+traceExtSize {
			return h, 0, fmt.Errorf("%w: truncated trace extension", errBadHeader)
		}
		h.T1 = int64(binary.LittleEndian.Uint64(buf[hdrSize:]))
		n += traceExtSize
	}
	if h.hasBlameExt() {
		if len(buf) < n+blameExtSize {
			return h, 0, fmt.Errorf("%w: truncated blame extension", errBadHeader)
		}
		h.BQueue = int64(binary.LittleEndian.Uint64(buf[n:]))
		h.BPause = int64(binary.LittleEndian.Uint64(buf[n+8:]))
		h.BReasm = int64(binary.LittleEndian.Uint64(buf[n+16:]))
		h.BHandler = int64(binary.LittleEndian.Uint64(buf[n+24:]))
		h.BECN = int64(binary.LittleEndian.Uint64(buf[n+32:]))
		n += blameExtSize
	}
	if h.hasTenantExt() {
		if len(buf) < n+tenantExtSize {
			return h, 0, fmt.Errorf("%w: truncated tenant extension", errBadHeader)
		}
		copy(h.TLabel[:], buf[n:n+tenantExtSize])
		n += tenantExtSize
	}
	return h, n, nil
}
