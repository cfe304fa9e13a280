package bench

import (
	"errors"
	"slices"
	"testing"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
)

// TestLedger settles one account per way a drill can go wrong, beside one
// request that goes right, and checks the counts the drills print and the
// claims that fail. The last case sends one request through serve and
// request: one round trip is one delivery and one response for its id.
func TestLedger(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(l *ledger)
		want   tally
		failed []string
	}{
		{"exactly-once", func(l *ledger) { l.send(1, nil); l.deliver(1); l.respond(1) },
			tally{Sent: 2, Delivered: 2, Resps: 2, Answered: 2}, nil},
		{"never-delivered", func(l *ledger) { l.send(1, nil) },
			tally{Sent: 2, Delivered: 1, Lost: 1, Resps: 1, Answered: 1}, []string{"lost", "unanswered"}},
		{"delivered-twice", func(l *ledger) { l.send(1, nil); l.deliver(1); l.deliver(1); l.respond(1) },
			tally{Sent: 2, Delivered: 2, Dups: 1, Resps: 2, Answered: 2}, []string{"dups"}},
		{"duplicate-response", func(l *ledger) { l.send(1, nil); l.deliver(1); l.respond(1); l.respond(1) },
			tally{Sent: 2, Delivered: 2, Resps: 3, Answered: 2, RespDups: 1}, []string{"resp-dups"}},
		{"send-error", func(l *ledger) { l.send(1, errors.New("rejected")) },
			tally{Sent: 2, SendErrs: 1, Delivered: 1, Lost: 1, Resps: 1, Answered: 1}, []string{"send-errors", "lost", "unanswered"}},
		{"too-few-sent", func(*ledger) {},
			tally{Sent: 1, Delivered: 1, Resps: 1, Answered: 1}, []string{"sent"}},
		{"serve-request", func(l *ledger) {
			c := cluster.New(cluster.Options{Topology: fabric.SmallClos(), Nodes: 2})
			l.serve(c, 7000)
			l.request(c.Establish([][2]int{{0, 1}}, 7000)[0], 1, 16, nil)
			c.Eng.Run()
		}, tally{Sent: 2, Delivered: 2, Resps: 2, Answered: 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger()
			l.send(0, nil)
			l.deliver(0)
			l.respond(0)
			tc.run(l)
			got := l.settle()
			if got != tc.want {
				t.Errorf("tally %+v, want %+v", got, tc.want)
			}
			var failed []string
			for _, c := range got.claims("E0", 2) {
				if !c.Holds() {
					failed = append(failed, c.ID[len("E0/"):])
				}
			}
			if !slices.Equal(failed, tc.failed) {
				t.Errorf("claims outside their band %v, want %v", failed, tc.failed)
			}
		})
	}
}
