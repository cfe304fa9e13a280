package tcpnet

import (
	"bytes"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

func newPair(t testing.TB) (*sim.Engine, *Stack, *Stack) {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	fabric.BuildClos(fab, fabric.SmallClos())
	a := New(eng, fab.Host(0))
	b := New(eng, fab.Host(5))
	return eng, a, b
}

func TestDialAndSend(t *testing.T) {
	eng, a, b := newPair(t)
	var srvConn *Conn
	var got []Message
	b.Listen(80, func(c *Conn) {
		srvConn = c
		c.OnMessage = func(m Message) { got = append(got, m) }
	})
	var cli *Conn
	var establishedAt sim.Time
	a.Dial(b.Node, 80, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		cli = c
		establishedAt = eng.Now()
	})
	eng.Run()
	if cli == nil || srvConn == nil {
		t.Fatal("connection not established")
	}
	// TCP establishment must be ~100µs, not milliseconds (§III Issue 3).
	el := sim.Duration(establishedAt)
	if el < 50*sim.Microsecond || el > 300*sim.Microsecond {
		t.Fatalf("TCP establishment %v outside [50µs, 300µs]", el)
	}

	payload := []byte("tcp message payload")
	cli.Send(payload, 0, nil)
	eng.Run()
	if len(got) != 1 || !bytes.Equal(got[0].Data, payload) {
		t.Fatalf("message lost/corrupt: %+v", got)
	}
}

func TestMultiSegmentMessage(t *testing.T) {
	eng, a, b := newPair(t)
	var got []Message
	b.Listen(80, func(c *Conn) {
		c.OnMessage = func(m Message) { got = append(got, m) }
	})
	var cli *Conn
	a.Dial(b.Node, 80, func(c *Conn, err error) { cli = c })
	eng.Run()
	payload := make([]byte, 50_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cli.Send(payload, 0, nil)
	eng.Run()
	if len(got) != 1 || !bytes.Equal(got[0].Data, payload) {
		t.Fatal("multi-segment message corrupted")
	}
}

func TestSizeOnlyMessages(t *testing.T) {
	eng, a, b := newPair(t)
	var got []Message
	b.Listen(80, func(c *Conn) {
		c.OnMessage = func(m Message) { got = append(got, m) }
	})
	var cli *Conn
	a.Dial(b.Node, 80, func(c *Conn, err error) { cli = c })
	eng.Run()
	cli.Send(nil, 128<<10, nil)
	eng.Run()
	if len(got) != 1 || got[0].Len != 128<<10 || got[0].Data != nil {
		t.Fatalf("size-only message: %+v", got)
	}
}

func TestRefused(t *testing.T) {
	eng, a, b := newPair(t)
	var gotErr error
	a.Dial(b.Node, 81, func(c *Conn, err error) { gotErr = err })
	eng.Run()
	if gotErr != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", gotErr)
	}
}

func TestCloseNotifiesPeer(t *testing.T) {
	eng, a, b := newPair(t)
	var srvConn *Conn
	var srvClosed error
	closed := false
	b.Listen(80, func(c *Conn) {
		srvConn = c
		c.OnClose = func(err error) { closed = true; srvClosed = err }
	})
	var cli *Conn
	a.Dial(b.Node, 80, func(c *Conn, err error) { cli = c })
	eng.Run()
	cli.Close()
	eng.Run()
	if !closed || srvClosed != ErrClosed {
		t.Fatalf("peer not notified of close: %v %v", closed, srvClosed)
	}
	if srvConn.Open() {
		t.Fatal("server conn still open")
	}
	// Send after close errors.
	var sendErr error
	cli.Send([]byte("x"), 0, func(err error) { sendErr = err })
	eng.Run()
	if sendErr != ErrClosed {
		t.Fatalf("send after close: %v", sendErr)
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	eng, a, b := newPair(t)
	var got []Message
	b.Listen(80, func(c *Conn) {
		c.OnMessage = func(m Message) { got = append(got, m) }
	})
	var cli *Conn
	a.Dial(b.Node, 80, func(c *Conn, err error) { cli = c })
	eng.Run()
	const n = 100
	for i := 0; i < n; i++ {
		cli.Send([]byte{byte(i)}, 0, nil)
	}
	eng.Run()
	if len(got) != n {
		t.Fatalf("received %d/%d", len(got), n)
	}
	for i, m := range got {
		if m.Data[0] != byte(i) {
			t.Fatalf("reordered at %d", i)
		}
	}
	if a.MsgsSent != n || b.MsgsRecv != n {
		t.Fatalf("counters %d/%d", a.MsgsSent, b.MsgsRecv)
	}
}

// A Conn is a byte stream underneath: a small message sent behind a large
// one must arrive behind it, even though both the send-side copy and the
// receive path charge the large one more. The sends are spaced so that the
// first pair races in the sender's kernel path and the second pair — the
// small message leaves as the large one's last segment lands — races in the
// receiver's.
func TestConnPreservesMessageOrder(t *testing.T) {
	eng, a, b := newPair(t)
	var got []int
	b.Listen(80, func(c *Conn) {
		c.OnMessage = func(m Message) { got = append(got, m.Len) }
	})
	var cli *Conn
	a.Dial(b.Node, 80, func(c *Conn, err error) { cli = c })
	eng.Run()

	want := []int{64 << 10, 16, 64 << 10, 16}
	cli.Send(nil, 64<<10, nil)
	cli.Send(nil, 16, nil)
	eng.Run()
	cli.Send(nil, 64<<10, nil)
	eng.RunFor(11 * sim.Microsecond) // the large copy is done, its segments are in flight
	cli.Send(nil, 16, nil)
	eng.Run()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v: a message overtook its predecessor", got, want)
		}
	}
}
