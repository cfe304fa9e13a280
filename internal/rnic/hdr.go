package rnic

import "xrdma/internal/telemetry"

// Op is the RDMA opcode carried in a work request / wire header.
type Op uint8

const (
	OpSend Op = iota
	OpSendImm
	OpWrite
	OpWriteImm
	OpRead
	// opReadResp is internal: data packets flowing back for an OpRead.
	opReadResp
	// opAck / opNak are hardware acknowledgement control packets.
	opAck
	opNak
	// opCNP is a DCQCN congestion notification packet.
	opCNP
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpSendImm:
		return "SEND_IMM"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_IMM"
	case OpRead:
		return "READ"
	case opReadResp:
		return "READ_RESP"
	case opAck:
		return "ACK"
	case opNak:
		return "NAK"
	case opCNP:
		return "CNP"
	}
	return "?"
}

// IsRecvConsuming reports whether a message with this opcode consumes a
// receive WQE at the responder (SENDs always; WRITE only with immediate).
func (o Op) IsRecvConsuming() bool {
	return o == OpSend || o == OpSendImm || o == OpWriteImm
}

// nakCode distinguishes NAK causes.
type nakCode uint8

const (
	nakSeqErr nakCode = iota // packet loss: go-back-N from PSN
	nakRNR                   // receiver not ready: retry after RNR timer
	nakAccess                // remote access violation: fatal to the QP
)

// hdr is the wire header each fabric packet carries in Packet.Payload.
// It is deliberately close to an IB BTH+RETH/AETH union.
type hdr struct {
	SrcQPN, DstQPN uint32
	Op             Op
	PSN            uint32

	// Message framing (data packets).
	MsgID  uint64 // per-QP message counter, diagnostic
	MsgLen int    // total message payload length
	Offset int    // this packet's offset within the message
	First  bool
	Last   bool

	// RETH fields for one-sided ops (valid on First).
	RAddr uint64
	RKey  uint32

	// Immediate data (valid on Last of *Imm ops).
	Imm uint32

	// AETH fields for opAck/opNak.
	AckPSN uint32 // cumulative: all PSNs < AckPSN received
	Nak    nakCode

	// Read: requester-chosen id so the response can complete the WR,
	// echoed by opReadResp packets; SizeOnly asks for segments without
	// bytes (SendWR.SizeOnly).
	ReadID   uint64
	SizeOnly bool

	// Data is the packet's payload slice (nil for header-only packets
	// and for size-only simulations). stage is the staging buffer a READ
	// response segment's Data aliases; putHdr gives the reference back.
	Data  []byte
	stage *stageBuf

	// Blame carries the message's trace accumulator to the receiving
	// NIC (nil unless the message is blame-sampled), so reassembly and
	// delivery can stamp into it and hand it up through the CQE.
	Blame *telemetry.PktBlame
}
