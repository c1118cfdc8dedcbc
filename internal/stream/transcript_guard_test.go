package stream

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
)

// TestStreamChurnTranscriptPinned is the stream's twin of
// cluster.TestChurnTranscriptPinned: lockstep churn runs under loss,
// pinned by every protocol decision (ticks, data, ack, hello and
// drop counts, each node's completion tick, entry tick and start
// generation) and by nothing that is only wire spelling (BitsOut). The
// first is one crash+join+leave; the second fragments views (mid-range
// leaves that stay gone, a rejoin, joins after leaves) with a suspicion
// threshold short enough that crashed peers leave and re-enter frontiers
// while the run is still streaming.
func TestStreamChurnTranscriptPinned(t *testing.T) {
	for _, c := range []struct {
		cfg   Config
		churn string
		want  string
	}{
		{Config{N: 24, K: 8, PayloadBits: 64, Window: 3, Generations: 10, Seed: 7},
			"crash:6:3,join:9:3,leave:14:2",
			"ticks=170 out=7400 in=5166 hellos=156 acks=3726 dropped=2916 toks=1760 live=22 nodes=27 hash=868470337484da73"},
		{Config{N: 96, K: 8, PayloadBits: 64, Window: 3, Generations: 12, Seed: 5, SuspectTicks: 12},
			"crash:6:5,leave:9:6,join:14:5,rejoin:20:2,leave:26:4,join:31:4,restart:37:2,crash:42:3,join:48:3,rejoin:55:2,leave:60:3,join:66:2",
			"ticks=205 out=37506 in=27002 hellos=3604 acks=19156 dropped=12112 toks=9032 live=95 nodes=110 hash=8554bb78129b9307"},
	} {
		sched, err := cluster.ParseChurn(c.churn)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			cfg := c.cfg
			cfg.Lockstep, cfg.Shards, cfg.MaxTicks, cfg.Churn = true, shards, 100000, sched
			cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.2, cfg.Seed+101)
			res, err := Run(context.Background(), cfg)
			if err != nil || !res.Completed {
				t.Fatalf("%s shards %d: completed=%v err=%v", c.churn, shards, res != nil && res.Completed, err)
			}
			h := fnv.New64a()
			var hellos int64
			for id, m := range res.Nodes {
				hellos += m.HellosOut
				fmt.Fprintf(h, "%d:%d/%d/%d/%d/%d/%d/%d/%d/%d;", id, m.DoneTick, m.JoinTick, m.StartGen,
					m.PacketsOut, m.PacketsIn, m.AcksOut, m.AcksIn, m.HellosOut, m.Dropped)
			}
			got := fmt.Sprintf("ticks=%d out=%d in=%d hellos=%d acks=%d dropped=%d toks=%d live=%d nodes=%d hash=%016x",
				res.Ticks, res.PacketsOut, res.PacketsIn, hellos, res.AcksOut, res.Dropped,
				res.TokensDelivered, res.FinalLive, len(res.Nodes), h.Sum64())
			if got != c.want {
				t.Errorf("%s shards %d: transcript moved:\n got %s\nwant %s", c.churn, shards, got, c.want)
			}
		}
	}
}
