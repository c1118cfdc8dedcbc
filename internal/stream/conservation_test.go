package stream

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/token"
)

// TestSendPathConservation pins packet conservation on the one send
// path both protocols share (cluster.Node's post/transmit), on the
// branch ordinary sizing never takes: with 1-slot inboxes every tick
// overflows, so most Sends are refused by the transport. Every packet
// sent must then be accounted for exactly once — received, counted in
// Dropped, or still sitting in an inbox when the run ended — at every
// shard count, and the run must still complete. Under a delay layer a
// refusal happens at the packet's release, where no sender hears of it;
// those are counted beneath the layer, once the run is over and the
// layer's queue has been ticked dry.
func TestSendPathConservation(t *testing.T) {
	const n = 8
	for _, shards := range []int{1, 3} {
		for _, proto := range []string{"coded", "forward", "stream", "coded+delay", "stream+delay"} {
			inboxes := cluster.NewChanTransport(n, 1)
			var tr cluster.Transport = inboxes
			var late refusals
			proto, delayed := strings.CutSuffix(proto, "+delay")
			if delayed {
				late.Layer = cluster.Layer{Transport: inboxes}
				tr = keepOpen{cluster.Layer{Transport: cluster.WithDelay(&late, 1, 3, 7)}}
			}
			var sent, received, dropped int64
			var completed bool
			var ticks int
			if proto == "stream" {
				res, err := Run(context.Background(), Config{
					N: n, K: 4, PayloadBits: 16, Window: 2, Generations: 3,
					Seed: 5, Lockstep: true, Shards: shards, Transport: tr, MaxTicks: 100000,
				})
				if err != nil {
					t.Fatal(err)
				}
				completed, dropped, ticks = res.Completed, res.Dropped, res.Ticks
				for _, m := range res.Nodes {
					sent += m.PacketsOut + m.AcksOut
					received += m.PacketsIn + m.AcksIn
				}
			} else {
				mode := cluster.Coded
				if proto == "forward" {
					mode = cluster.Forward
				}
				res, err := cluster.Run(context.Background(), cluster.Config{
					N: n, Mode: mode, Seed: 5, Lockstep: true, Shards: shards, Transport: tr, MaxTicks: 100000,
				}, token.RandomSet(6, 16, rand.New(rand.NewSource(5))))
				if err != nil {
					t.Fatal(err)
				}
				completed, dropped, ticks = res.Completed, res.Dropped, res.Ticks
				sent, received = res.PacketsOut, res.PacketsIn
			}
			for d := 1; d <= 3; d++ {
				cluster.ObserveTick(tr, int64(ticks+d))
			}
			dropped += late.n
			inFlight := int64(0)
			for id := 0; id < n; id++ {
				inFlight += int64(len(inboxes.Recv(id)))
			}
			if !completed {
				t.Errorf("%s delay=%v shards=%d: did not complete through 1-slot inboxes", proto, delayed, shards)
			}
			if dropped == 0 || delayed != (late.n > 0) {
				t.Errorf("%s delay=%v shards=%d: %d dropped, %d at release; the overflow path did not run", proto, delayed, shards, dropped, late.n)
			}
			if sent != received+dropped+inFlight {
				t.Errorf("%s delay=%v shards=%d: sent %d != received %d + dropped %d + in flight %d",
					proto, delayed, shards, sent, received, dropped, inFlight)
			}
		}
	}
}

// refusals counts the Sends the transport beneath it refused. The
// lockstep driver's Sends are serial, so it needs no lock.
type refusals struct {
	cluster.Layer
	n int64
}

func (r *refusals) Send(from, to int, pkt []byte) bool {
	ok := r.Transport.Send(from, to, pkt)
	if !ok {
		r.n++
	}
	return ok
}

// keepOpen swallows Close: Run closes its transport, and the test wants
// what the delay layer still holds then.
type keepOpen struct{ cluster.Layer }

func (keepOpen) Close() {}
