package xrdma

import (
	"bytes"
	"encoding/hex"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"xrdma/internal/verbs"
)

// TestHdrRoundTrip: a rendezvous announce, plain and size-only both ways,
// round-trips in the bare 64-byte header (flagSizeOnly adds no bytes).
func TestHdrRoundTrip(t *testing.T) {
	for _, h := range []wireHdr{
		{Kind: kindLargeReq, Flags: flagOneWay},
		{Kind: kindLargeReq, Flags: flagSizeOnly},
		{Kind: kindLargeResp, Flags: flagSizeOnly},
	} {
		h.Ver, h.Seq, h.Ack, h.MsgID, h.Size, h.Addr, h.RKey = hdrVersion, 12345, 12000, 999, 1<<20, 0x7f00_1234_0000, 42
		buf := make([]byte, h.wireBytes())
		n := h.encode(buf)
		if n != hdrSize {
			t.Fatalf("%v flags %#x: encoded %d bytes", h.Kind, h.Flags, n)
		}
		got, n2, err := decodeHdr(buf)
		if err != nil || n2 != n {
			t.Fatalf("decode: %v (%d)", err, n2)
		}
		if got != h {
			t.Fatalf("roundtrip mismatch:\n%+v\n%+v", got, h)
		}
	}
}

func TestHdrTraceExtension(t *testing.T) {
	h := wireHdr{Kind: kindReq, Flags: flagTraced, Seq: 1, T1: 123456789}
	buf := make([]byte, h.wireBytes())
	n := h.encode(buf)
	if n != hdrSize+traceExtSize {
		t.Fatalf("traced header length %d", n)
	}
	got, _, err := decodeHdr(buf)
	if err != nil || got.T1 != 123456789 {
		t.Fatalf("trace extension lost: %v %d", err, got.T1)
	}
}

func TestHdrRejectsGarbage(t *testing.T) {
	if _, _, err := decodeHdr(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, _, err := decodeHdr(make([]byte, hdrSize)); err == nil {
		t.Fatal("zero magic decoded")
	}
	h := wireHdr{Kind: kindReq}
	buf := make([]byte, hdrSize)
	h.encode(buf)
	buf[2] = 99 // wrong version
	if _, _, err := decodeHdr(buf); !errors.Is(err, errVersion) {
		t.Fatalf("foreign version must surface errVersion, got %v", err)
	}
	buf[2] = 0 // below the negotiable floor
	if _, _, err := decodeHdr(buf); !errors.Is(err, errVersion) {
		t.Fatalf("version 0 must surface errVersion, got %v", err)
	}
	buf[2] = hdrVersionMax // top of the negotiable window decodes fine
	if _, _, err := decodeHdr(buf); err != nil {
		t.Fatalf("hdrVersionMax must decode: %v", err)
	}
	// Truncated trace extension.
	ht := wireHdr{Kind: kindReq, Flags: flagTraced}
	buf2 := make([]byte, hdrSize+traceExtSize)
	ht.encode(buf2)
	if _, _, err := decodeHdr(buf2[:hdrSize]); err == nil {
		t.Fatal("truncated trace extension decoded")
	}
}

// Property: encode/decode is the identity on all field values.
func TestHdrRoundTripProperty(t *testing.T) {
	prop := func(kind uint8, flags uint16, seq, ack, msgID, addr uint64, size, rkey uint32, t1 int64) bool {
		// Ver ranges over the negotiable window; 0 encodes as hdrVersion
		// and decodes back as the explicit value.
		ver := hdrVersion + uint8(kind)%(hdrVersionMax-hdrVersion+1)
		h := wireHdr{
			Kind: msgKind(kind % 9), Ver: ver, Flags: flags & (flagTraced | flagOneWay | flagSizeOnly),
			Seq: seq, Ack: ack, MsgID: msgID, Size: size, Addr: addr, RKey: rkey,
		}
		if h.Flags&flagTraced != 0 {
			h.T1 = t1
		}
		buf := make([]byte, h.wireBytes())
		h.encode(buf)
		got, _, err := decodeHdr(buf)
		return err == nil && got == h
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKindProperties(t *testing.T) {
	windowedKinds := map[msgKind]bool{kindReq: true, kindResp: true, kindLargeReq: true, kindLargeResp: true}
	for k := kindReq; k <= kindPong; k++ {
		if k.windowed() != windowedKinds[k] {
			t.Fatalf("windowed(%v) wrong", k)
		}
	}
}

// TestWireReservedBytes: bytes 50..53 carry no field. Every kind encodes them
// zero, and a header with anything there decodes equal to the zeroed one.
func TestWireReservedBytes(t *testing.T) {
	for k := kindReq; k <= kindWinRevoke; k++ {
		h := wireHdr{
			Kind: k, Ver: hdrVersionMax, Flags: flagTraced | flagTenant, Seq: 5, Ack: 4, MsgID: 77,
			Size: 64, Addr: 0x10000, RKey: 7, Chan: 9, Tenant: 1, TLabel: [8]byte{'a'}, T1: 42,
		}
		buf := make([]byte, h.wireBytes())
		for i := range buf {
			buf[i] = 0xA5 // a recycled buffer: encode must clear the reserved bytes
		}
		h.encode(buf)
		if r := buf[50:54]; string(r) != "\x00\x00\x00\x00" {
			t.Fatalf("%v: reserved bytes encode as %x, want zero", k, r)
		}
		zeroed, _, err := decodeHdr(buf)
		if err != nil || zeroed != h {
			t.Fatalf("%v: round trip: %v\n got %+v\nwant %+v", k, err, zeroed, h)
		}
		copy(buf[50:54], []byte{0xfe, 0xed, 0xfa, 0xce})
		if got, _, err := decodeHdr(buf); err != nil || got != zeroed {
			t.Fatalf("%v: non-zero reserved bytes changed the decode: %v\n got %+v\nwant %+v", k, err, got, zeroed)
		}
	}
}

// --- frozen hello corpus -------------------------------------------------------

// wireHellos is the hello corpus, testdata/wire/<name>.hex: one hello per
// purpose, the two establishment hellos again with the negotiation block a
// v2 node offers, the open hello of a foreign v2-only build (no release of
// this one offers a range without v1), and the REP verdicts a v1 and a v2
// listener settle a v2 dialer's open on. Distinct field values pin the field
// order.
var wireHellos = map[string]hello{
	"open":         {purpose: helloOpen},
	"open-neg":     {purpose: helloOpen, neg: true, offer: offer{1, 2, baselineCaps | capDrainHint}},
	"open-v2-only": {purpose: helloOpen, neg: true, offer: offer{2, 2, baselineCaps | capDrainHint}},
	"rep-v1":       {purpose: helloOpen, neg: true, offer: offer{1, 1, baselineCaps}},
	"rep-v2":       {purpose: helloOpen, neg: true, offer: offer{2, 2, baselineCaps | capDrainHint}},
	"mux-slot":     {purpose: helloMuxSlot, slot: 0x0102},
	"mux-slot-neg": {purpose: helloMuxSlot, slot: 0x0102, neg: true, offer: offer{1, 2, baselineCaps | capDrainHint}},
	"mux-reattach": {purpose: helloMuxReattach, target: 0x01020304, target0: 0x05060708, dialer0: 0x090a0b0c},
	"recover":      {purpose: helloRecover, target: 0x01020304, target0: 0x05060708, dialer0: 0x090a0b0c},
	"mock":         {purpose: helloMock, target: 0x01020304, target0: 0x05060708, dialer0: 0x090a0b0c},
}

// wireFrames is the frame corpus beside it, testdata/wire/frame-<kind>.hex and
// ext-<extension>.hex: one header per live frame kind, with the fields its
// sender sets, and one per header extension. Distinct field values pin the
// field order.
var wireFrames = map[string]wireHdr{
	"frame-req":         {Kind: kindReq, Ver: hdrVersion, Seq: 0x0102, Ack: 0x0304, MsgID: 0x0506, Size: 0x0708, Chan: 0x090a},
	"frame-resp":        {Kind: kindResp, Ver: hdrVersion, Seq: 0x0102, Ack: 0x0304, MsgID: 0x0506, Size: 0x0708, Chan: 0x090a},
	"frame-ack":         {Kind: kindAck, Ver: hdrVersion, Ack: 0x0304, Chan: 0x090a},
	"frame-nop":         {Kind: kindNop, Ver: hdrVersion, Ack: 0x0304, Chan: 0x090a},
	"frame-large-req":   {Kind: kindLargeReq, Ver: hdrVersion, Flags: flagOneWay, Seq: 0x0102, Ack: 0x0304, MsgID: 0x0506, Size: 0x070809, Addr: 0x0b0c_0d0e_0f10, RKey: 0x1112, Chan: 0x090a},
	"frame-large-resp":  {Kind: kindLargeResp, Ver: hdrVersion, Flags: flagSizeOnly, Seq: 0x0102, Ack: 0x0304, MsgID: 0x0506, Size: 0x070809, Addr: 0x0b0c_0d0e_0f10, RKey: 0x1112, Chan: 0x090a},
	"frame-ping":        {Kind: kindPing, Ver: hdrVersion, Ack: 0x0304, MsgID: 0x0506, Chan: 0x090a},
	"frame-pong":        {Kind: kindPong, Ver: hdrVersion, Flags: flagTraced, Ack: 0x0304, MsgID: 0x0506, Chan: 0x090a, T1: 0x1314_1516},
	"frame-chan-open":   {Kind: kindChanOpen, Ver: hdrVersion, MsgID: 0x1718, Chan: 0x090a},
	"frame-chan-accept": {Kind: kindChanAccept, Ver: hdrVersion, MsgID: 0x1718, Chan: 0x090a},
	"frame-chan-close":  {Kind: kindChanClose, Ver: hdrVersion, Chan: 0x090a},
	"frame-mux-sick":    {Kind: kindMuxSick, Ver: hdrVersion},
	"frame-path-hint":   {Kind: kindPathHint, Ver: hdrVersion, Ack: 0x0304, Chan: 0x090a},
	"frame-win-grant":   {Kind: kindWinGrant, Ver: hdrVersion, Ack: 0x0304, MsgID: 0x1920, Size: 0x2122, Addr: 0x0b0c_0d0e_0f10, RKey: 0x1112, Chan: 0x090a},
	"frame-win-revoke":  {Kind: kindWinRevoke, Ver: hdrVersion, Ack: 0x0304, MsgID: 0x1920, Chan: 0x090a},
	"ext-trace":         {Kind: kindReq, Ver: hdrVersion, Flags: flagTraced, Seq: 0x0102, Ack: 0x0304, MsgID: 0x0506, Size: 0x0708, T1: 0x1314_1516},
	"ext-blame": {Kind: kindResp, Ver: hdrVersion, Flags: flagTraced | flagBlame, Seq: 0x0102, Ack: 0x0304, MsgID: 0x0506, Size: 0x0708,
		T1: 0x1314_1516, BQueue: 0x2324, BPause: 0x2526, BReasm: 0x2728, BHandler: 0x2930, BECN: 0x31},
	"ext-tenant": {Kind: kindChanOpen, Ver: hdrVersionMax, Flags: flagTenant, MsgID: 0x1718, Chan: 0x090a, Tenant: 0x3233, TLabel: [8]byte{'t', 'e', 'n', 'a', 'n', 't', '-', 'a'}},
}

// TestWireCorpus holds every frozen hello and frame to two things: it parses
// to what the corpus names (a frame through decodeHdr), and it re-encodes byte
// for byte. The frames cover every live kind, and the REP verdicts are what a
// v1 and a v2 listener answer the open-neg hello with. -update rewrites the
// files from this tree, so a change to a layout is a diff.
func TestWireCorpus(t *testing.T) {
	hellos := map[string][]byte{}
	for _, name := range slices.Sorted(maps.Keys(wireHellos)) {
		path, b := corpusFile(t, name, wireHellos[name].encode)
		if h, v := parseHello(b); v != helloOK || h != wireHellos[name] {
			t.Errorf("%s parses to %+v (verdict %d), want %+v", path, h, v, wireHellos[name])
		} else if again := h.encode(); !bytes.Equal(again, b) {
			t.Errorf("%s re-encodes to %x", path, again)
		}
		hellos[name] = b
	}
	w := newWorld(t, 2, func(i int, cfg *Config) { cfg.ProtoVerMax = 1 + i })
	for i, name := range []string{"rep-v1", "rep-v2"} {
		req := &verbs.ConnReq{}
		if _, _, ok := w.ctxs[i].settle(req, wireHellos["open-neg"]); !ok || !bytes.Equal(req.ReplyData, hellos[name]) {
			t.Errorf("a v%d listener answers open-neg with %x (ok=%v), want %s: %x", i+1, req.ReplyData, ok, name, hellos[name])
		}
	}
	encode := func(h wireHdr) []byte {
		buf := make([]byte, h.wireBytes())
		h.encode(buf)
		return buf
	}
	kinds := map[msgKind]bool{}
	for _, name := range slices.Sorted(maps.Keys(wireFrames)) {
		want := wireFrames[name]
		path, b := corpusFile(t, name, func() []byte { return encode(want) })
		if h, n, err := decodeHdr(b); err != nil || n != len(b) || h != want {
			t.Errorf("%s decodes to %+v (%d of %d bytes, %v), want %+v", path, h, n, len(b), err, want)
		} else if again := encode(h); !bytes.Equal(again, b) {
			t.Errorf("%s re-encodes to %x", path, again)
		}
		kinds[want.Kind] = true
	}
	for k := kindReq; k <= kindWinRevoke; k++ {
		if !kinds[k] && k != 6 { // 6 is retired
			t.Errorf("no frame of kind %d in the corpus", k)
		}
	}
}

// corpusFile reads testdata/wire/<name>.hex, which -update first writes from
// encode.
func corpusFile(t *testing.T, name string, encode func() []byte) (string, []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", name+".hex")
	if *update {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(encode())+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return path, b
}
