package xrdma

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecodeHdr hardens the wire-header parser against hostile or
// corrupted inbound bytes: decodeHdr must never panic or over-read, and
// every successful decode must be internally consistent (sane length,
// round-trippable through encode). The brownout fault class delivers
// genuinely damaged frames to this parser, so "never crash" is a
// production invariant, not fuzz hygiene.
func FuzzDecodeHdr(f *testing.F) {
	mk := func(h wireHdr) []byte {
		buf := make([]byte, h.wireBytes())
		h.encode(buf)
		return buf
	}
	// Valid headers of every kind, plain — and of the retired numbers (6,
	// READ_DONE, and the three behind WIN_REVOKE, an old release's
	// Mock-emulated READ_REQ/READ_RESP/WRITE_IMM), which stay in the corpus
	// as hostile input.
	const oldReadReq, oldReadResp, oldWriteImm = kindWinRevoke + 1, kindWinRevoke + 2, kindWinRevoke + 3
	for k := kindReq; k <= oldWriteImm; k++ {
		f.Add(mk(wireHdr{Kind: k, Seq: 7, Ack: 3, MsgID: 99, Size: 1024}))
	}
	f.Add(mk(wireHdr{Kind: kindResp, Flags: flagTraced, Seq: 1, MsgID: 2, T1: 123456789}))
	f.Add(mk(wireHdr{Kind: kindResp, Flags: flagBlame, Seq: 4, MsgID: 5, Size: 64}))
	f.Add(mk(wireHdr{Kind: kindResp, Flags: flagTraced | flagBlame, Seq: 6, MsgID: 7, T1: 42}))
	f.Add(mk(wireHdr{Kind: kindReq, Flags: flagOneWay, Size: 16}))
	f.Add(mk(wireHdr{Kind: kindLargeReq, Size: 1 << 20, Addr: 0xdeadbeef, RKey: 42}))
	// A size-only rendezvous announce: its pull moves lengths, not bytes.
	f.Add(mk(wireHdr{Kind: kindLargeResp, Flags: flagSizeOnly, Seq: 2, MsgID: 3, Size: 128 << 10, Addr: 0xdeadbeef, RKey: 42}))
	// One-sided plane shapes: a window grant (Addr/RKey/Size carry the
	// window), a revoke (id only), and what an old release's emulated READ
	// round trip (including its access-failure flag, bit 1<<3) and WRITE+imm
	// with a live immediate in the now-reserved bytes 50..53 looked like.
	f.Add(mk(wireHdr{Kind: kindWinGrant, MsgID: 11, Addr: 0x10000, RKey: 7, Size: 65536}))
	f.Add(mk(wireHdr{Kind: kindWinRevoke, MsgID: 11}))
	f.Add(mk(wireHdr{Kind: oldReadReq, MsgID: 12, Addr: 0x10040, RKey: 7, Size: 256}))
	f.Add(mk(wireHdr{Kind: oldReadResp, MsgID: 12, Size: 256}))
	f.Add(mk(wireHdr{Kind: oldReadResp, MsgID: 13, Flags: 1 << 3}))
	writeImm := mk(wireHdr{Kind: oldWriteImm, MsgID: 14, Addr: 0x10080, RKey: 7, Size: 64})
	binary.LittleEndian.PutUint32(writeImm[50:], 0xfeedface)
	f.Add(writeImm)
	// Hostile shapes: empty, short, bad magic, bad version, truncated
	// trace extension, flag soup.
	f.Add([]byte{})
	f.Add([]byte{0x58})
	f.Add(bytes.Repeat([]byte{0xff}, hdrSize-1))
	f.Add(bytes.Repeat([]byte{0x00}, hdrSize))
	bad := mk(wireHdr{Kind: kindReq})
	binary.LittleEndian.PutUint16(bad, 0x4242)
	f.Add(bad)
	vbad := mk(wireHdr{Kind: kindReq})
	vbad[2] = 9
	f.Add(vbad)
	trunc := mk(wireHdr{Kind: kindReq, Flags: flagTraced, T1: 1})
	f.Add(trunc[:hdrSize])
	soup := mk(wireHdr{Kind: kindPong, Flags: 0xffff, T1: -1})
	f.Add(soup)
	// Hostile one-sided shapes: an unknown future kind, a WRITE+imm whose
	// Size claims far more payload than any frame carries, and a READ
	// response cut off mid-header.
	unknown := mk(wireHdr{Kind: kindWinRevoke + 4, Size: 64})
	f.Add(unknown)
	huge := mk(wireHdr{Kind: oldWriteImm, Size: ^uint32(0)})
	binary.LittleEndian.PutUint32(huge[50:], 1)
	f.Add(huge)
	cut := mk(wireHdr{Kind: oldReadResp, MsgID: 9, Size: 512})
	f.Add(cut[:50])
	// Tenant plane shapes: a labelled data frame, a labelled CHAN_OPEN,
	// the label riding alongside trace+blame extensions, and hostile
	// variants — an unknown tenant id with a foreign label, and a frame
	// whose label extension is cut off.
	f.Add(mk(wireHdr{Kind: kindReq, Flags: flagTenant, Tenant: 1, TLabel: [8]byte{'m', 'o', 'u', 's', 'e'}, Size: 256}))
	f.Add(mk(wireHdr{Kind: kindChanOpen, Flags: flagTenant, Tenant: 2, TLabel: [8]byte{'e', 'l', 'e', 'p', 'h', 'a', 'n', 't'}, Chan: 9}))
	f.Add(mk(wireHdr{Kind: kindResp, Flags: flagTraced | flagBlame | flagTenant, Tenant: 1, TLabel: [8]byte{'t'}, T1: 9}))
	f.Add(mk(wireHdr{Kind: kindReq, Flags: flagTenant, Tenant: 0xffff, TLabel: [8]byte{0xff, 0xfe, 0xfd}}))
	tcut := mk(wireHdr{Kind: kindReq, Flags: flagTenant, Tenant: 3, TLabel: [8]byte{'x'}})
	f.Add(tcut[:len(tcut)-3])
	// Hot-upgrade plane shapes: v2 frames (the negotiated bump shares the
	// v1 layout), a v2 frame carrying every extension at once, hostile
	// version bytes (zero and future — both must resolve to errVersion,
	// never a panic or a misparse), and a channel-negotiation hello sitting
	// where a data header should be.
	f.Add(mk(wireHdr{Ver: hdrVersionMax, Kind: kindReq, Seq: 8, Ack: 6, MsgID: 100, Size: 512}))
	f.Add(mk(wireHdr{Ver: hdrVersionMax, Kind: kindResp, Flags: flagTraced | flagBlame | flagTenant, Tenant: 1, TLabel: [8]byte{'u'}, T1: 77}))
	f.Add(mk(wireHdr{Ver: hdrVersionMax, Kind: kindWinGrant, MsgID: 21, Addr: 0x20000, RKey: 9, Size: 4096}))
	vzero := mk(wireHdr{Kind: kindReq})
	vzero[2] = 0
	f.Add(vzero)
	f.Add(append(hello{purpose: helloOpen, neg: true, offer: offer{minVer: 1, maxVer: 2, caps: baselineCaps | capDrainHint}}.encode(), make([]byte, hdrSize)...))

	f.Fuzz(func(t *testing.T, b []byte) {
		h, n, err := decodeHdr(b)
		if err != nil {
			return
		}
		// No over-read, and the consumed length matches the layout.
		if n > len(b) {
			t.Fatalf("decodeHdr consumed %d of %d bytes", n, len(b))
		}
		want := hdrSize
		if h.Flags&flagTraced != 0 {
			want += traceExtSize
		}
		if h.hasBlameExt() {
			want += blameExtSize
		}
		if h.hasTenantExt() {
			want += tenantExtSize
		}
		if n != want {
			t.Fatalf("consumed %d bytes, layout says %d (flags %#x)", n, want, h.Flags)
		}
		// Round-trip: re-encoding the decoded header must reproduce the
		// consumed prefix bit-for-bit (the parser invents nothing).
		out := make([]byte, h.wireBytes())
		if m := h.encode(out); m != n {
			t.Fatalf("re-encode wrote %d bytes, decode consumed %d", m, n)
		}
		// Bytes 0..55 are decoded fields except the reserved 50..53
		// (TestWireReservedBytes); the round-trip must preserve every field byte.
		if !bytes.Equal(out[:50], b[:50]) || !bytes.Equal(out[54:56], b[54:56]) {
			t.Fatalf("fixed fields diverge after round-trip:\n in=%x\nout=%x", b[:56], out[:56])
		}
		if h.Flags&flagTraced != 0 && !bytes.Equal(out[hdrSize:hdrSize+8], b[hdrSize:hdrSize+8]) {
			t.Fatalf("trace extension diverges after round-trip")
		}
		// Version sanity: decode only admits the range this build speaks.
		if h.Ver < hdrVersion || h.Ver > hdrVersionMax {
			t.Fatalf("decodeHdr admitted version %d outside [%d, %d]", h.Ver, hdrVersion, hdrVersionMax)
		}
	})
}

// FuzzParseHello hardens the one establishment-hello parser: CM private
// data and the first frame of a mock conn are peer-controlled bytes, and a
// hostile hello must parse into a well-formed one, be classed a legacy
// (no-hello) peer, or get the loud unknown verdict — never crash, never
// over-read, never half-parse.
func FuzzParseHello(f *testing.F) {
	v2 := offer{minVer: 1, maxVer: 2, caps: baselineCaps | capDrainHint}
	for _, h := range []hello{
		{purpose: helloOpen},
		{purpose: helloMuxSlot, slot: 1},
		{purpose: helloMuxReattach, target: 9, target0: 3, dialer0: 4},
		{purpose: helloRecover, target: 9, target0: 3, dialer0: 4},
		{purpose: helloMock, target: 0xdead, target0: 3, dialer0: 4},
	} {
		f.Add(h.encode())
		h.neg, h.offer = true, v2
		f.Add(h.encode())
		f.Add(h.encode()[:len(h.encode())-2]) // truncated negotiation block
		f.Add(append(h.encode(), 0xAA, 0xBB)) // trailing garbage
	}
	f.Add(hello{purpose: helloOpen, neg: true, offer: offer{minVer: 255, maxVer: 0, caps: ^uint32(0)}}.encode())
	future := hello{purpose: helloMuxSlot, slot: 2}.encode()
	future[2] = helloFmt + 1
	f.Add(future)
	unknown := hello{purpose: helloOpen}.encode()
	unknown[3] = 0x7f
	f.Add(unknown)
	f.Add(hello{purpose: helloMock, target: 0xdead}.encode()[:helloHdrSize+4]) // a 4-byte Mock body: the retired layout
	f.Add([]byte{})
	f.Add([]byte{0x58, 0x4c})             // magic alone, truncated
	f.Add(bytes.Repeat([]byte{0xff}, 16)) // flag soup, wrong magic

	c := newWorld(f, 1, nil).ctxs[0]
	f.Fuzz(func(t *testing.T, b []byte) {
		before := c.Stats.VerMismatches
		h, v := c.readHello(0, b)
		if loud := c.Stats.VerMismatches - before; (v == helloUnknown) != (loud == 1) {
			t.Fatalf("verdict %d counted %d mismatches: unknown must be loud, and only unknown", v, loud)
		}
		if v != helloOK {
			return
		}
		// A parsed hello round-trips bit-for-bit over the prefix it consumed.
		if out := h.encode(); !bytes.HasPrefix(b, out) {
			t.Fatalf("hello diverges after round-trip:\n in=%x\nout=%x", b, out)
		}
		if !h.neg {
			return
		}
		// Negotiating any parsed offer against any local range must never
		// panic, however inverted the peer's range, and must settle inside
		// both ranges with no capability the local side never offered.
		for _, local := range []offer{
			{minVer: 1, maxVer: 1, caps: baselineCaps},
			v2,
			{minVer: 2, maxVer: 2, caps: 0},
		} {
			ver, caps, ok := negotiate(local, h.offer)
			if ok && (ver < local.minVer || ver > local.maxVer || ver < h.minVer || ver > h.maxVer) {
				t.Fatalf("negotiate settled on %d outside [%d,%d] ∩ [%d,%d]", ver, local.minVer, local.maxVer, h.minVer, h.maxVer)
			}
			if ok && caps&^local.caps != 0 {
				t.Fatalf("negotiate granted caps %#x the local side never offered", caps)
			}
		}
	})
}

// FuzzDecodeHandoff hardens the restart-handoff parser: the blob crosses
// a process boundary (and, in production, a disk or RPC hop), so a
// truncated, corrupted, or adversarial blob must fail loudly — no panic,
// allocations bounded by the blob's length, and never a half-parsed channel
// set handed to Rehydrate. A blob that decodes re-encodes to one that
// decodes to the same value.
func FuzzDecodeHandoff(f *testing.F) {
	good := marshalHandoff(f, sampleHandoff())
	f.Add(good)
	f.Add(marshalHandoff(f, handoff{Ver: handoffVer, MsgSeq: 9}))
	f.Add(good[:len(good)-5])                                                      // truncated mid-window
	f.Add(marshalHandoff(f, mutHandoff(func(h *handoff) { h.Chans[0].QPN0 = 0 }))) // a channel with no identity
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(marshalHandoff(f, handoff{Ver: handoffVer + 1})) // future blob version

	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := decodeHandoff(b)
		if err != nil {
			return
		}
		for _, c := range h.Chans {
			for _, m := range c.Tail {
				if len(m.Data) > len(b) {
					t.Fatalf("tail payload %d bytes from a %d-byte blob", len(m.Data), len(b))
				}
			}
		}
		again, err := decodeHandoff(marshalHandoff(t, *h))
		if err != nil {
			t.Fatalf("a decoded blob re-encodes to one that fails: %v", err)
		}
		if !reflect.DeepEqual(h, again) {
			t.Fatalf("round trip changed the blob:\n in=%+v\nout=%+v", h, again)
		}
	})
}
