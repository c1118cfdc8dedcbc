package stream

import (
	"context"
	"math/rand"
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
// shard count, and the run must still complete.
func TestSendPathConservation(t *testing.T) {
	const n = 8
	for _, shards := range []int{1, 3} {
		for _, proto := range []string{"coded", "forward", "stream"} {
			tr := cluster.NewChanTransport(n, 1)
			var sent, received, dropped int64
			var completed bool
			if proto == "stream" {
				res, err := Run(context.Background(), Config{
					N: n, K: 4, PayloadBits: 16, Window: 2, Generations: 3,
					Seed: 5, Lockstep: true, Shards: shards, Transport: tr, MaxTicks: 100000,
				})
				if err != nil {
					t.Fatal(err)
				}
				completed, dropped = res.Completed, res.Dropped
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
				completed, dropped = res.Completed, res.Dropped
				sent, received = res.PacketsOut, res.PacketsIn
			}
			inFlight := int64(0)
			for id := 0; id < n; id++ {
				inFlight += int64(len(tr.Recv(id)))
			}
			if !completed {
				t.Errorf("%s shards=%d: did not complete through 1-slot inboxes", proto, shards)
			}
			if dropped == 0 {
				t.Errorf("%s shards=%d: nothing dropped; the overflow path did not run", proto, shards)
			}
			if sent != received+dropped+inFlight {
				t.Errorf("%s shards=%d: sent %d != received %d + dropped %d + in flight %d",
					proto, shards, sent, received, dropped, inFlight)
			}
		}
	}
}
