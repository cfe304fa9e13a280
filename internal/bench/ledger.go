package bench

import (
	"encoding/binary"

	"xrdma/internal/cluster"
	"xrdma/internal/xrdma"
)

// ledger is a drill's exactly-once account of the requests it sends by id:
// how often the server delivered each one, and how often its response came
// back. Each drill keeps its own id layout.
type ledger struct {
	ids        []uint64 // sent, in send order
	recv, resp map[uint64]int
	sendErrs   int
}

func newLedger() *ledger {
	return &ledger{recv: map[uint64]int{}, resp: map[uint64]int{}}
}

// send records a request sent under id; err is what the send returned. A
// rejected request stays in the account, so it is lost if it never lands.
func (l *ledger) send(id uint64, err error) {
	l.ids = append(l.ids, id)
	if err != nil {
		l.sendErrs++
	}
}

func (l *ledger) deliver(id uint64) { l.recv[id]++ }
func (l *ledger) respond(id uint64) { l.resp[id]++ }

// serve makes every node of c echo id-stamped requests on port: each one is
// delivered against the id in its first 8 bytes, and the reply carries the
// id back.
func (l *ledger) serve(c *cluster.Cluster, port int) {
	c.ListenAll(port, func(_ *cluster.Node, ch *xrdma.Channel) {
		ch.OnMessage(func(m *xrdma.Msg) {
			l.deliver(binary.LittleEndian.Uint64(m.Data))
			m.Reply(m.Data[:8], 0)
		})
	})
}

// request sends a size-byte request stamped with id on ch and accounts it;
// each response is accounted against the id it carries, which onResp
// (optional) then sees.
func (l *ledger) request(ch *xrdma.Channel, id uint64, size int, onResp func(id uint64)) {
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf, id)
	l.send(id, ch.SendMsg(buf, 0, func(m *xrdma.Msg, err error) {
		if err != nil {
			return
		}
		rid := binary.LittleEndian.Uint64(m.Data)
		l.respond(rid)
		if onResp != nil {
			onResp(rid)
		}
	}))
}

// tally is what a ledger settles to.
type tally struct {
	Sent, SendErrs int
	Delivered      int // ids the server saw at least once
	Lost           int // ids the server never saw
	Dups           int // ids the server saw more than once
	Resps          int // responses, all of them
	Answered       int // ids with at least one response
	RespDups       int // ids with more than one response
}

func (l *ledger) settle() tally {
	t := tally{Sent: len(l.ids), SendErrs: l.sendErrs}
	for _, id := range l.ids {
		switch n := l.recv[id]; {
		case n == 0:
			t.Lost++
		case n > 1:
			t.Dups++
			fallthrough
		default:
			t.Delivered++
		}
		n := l.resp[id]
		t.Resps += n
		if n > 0 {
			t.Answered++
		}
		if n > 1 {
			t.RespDups++
		}
	}
	return t
}

// claims holds the account to §VI-C's bar under id: at least minSent
// sent, none rejected, none lost, none delivered twice, and every one
// answered exactly once.
func (t tally) claims(id string, minSent int) []Claim {
	return []Claim{
		within(id+"/sent", "load", float64(t.Sent), float64(minSent), inf),
		within(id+"/send-errors", "0", float64(t.SendErrs), 0, 0),
		within(id+"/lost", "0", float64(t.Lost), 0, 0),
		within(id+"/dups", "0", float64(t.Dups), 0, 0),
		within(id+"/unanswered", "0", float64(t.Sent-t.Answered), 0, 0),
		within(id+"/resp-dups", "0", float64(t.RespDups), 0, 0),
	}
}
