package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestChurnTranscriptPinned pins lockstep churn×loss runs by
// everything in them that is a protocol decision — ticks, packets, hello
// and drop counts, every node's completion and (re)entry tick — and by
// nothing that is only how a packet is spelled on the wire (BitsOut).
// A codec change must leave every value here alone, at any shard count.
// The first shape is cmd/cluster -n 48 -k 96 -payload 200 -loss 0.2
// -transport lockstep -seed 7 -churn crash:3:4,join:5:4, plus a leave and a restart so
// goodbyes and re-introduction bursts are in it too. The second breaks
// views into many stretches of ids: uniform leaves land mid-range and
// stay gone, a rejoin re-enters an id every view had dropped or never
// knew, and joins keep extending an id space with holes in it.
func TestChurnTranscriptPinned(t *testing.T) {
	for _, c := range []struct {
		n, k, d int
		seed    int64
		churn   string
		want    string
	}{
		{48, 96, 200, 7, "crash:3:4,join:5:4,leave:8:2,restart:12:2",
			"ticks=83 out=7854 in=5857 hellos=387 dropped=1675 live=48 nodes=52 hash=af6f6f5f18adaf1a"},
		{96, 128, 64, 5, "crash:3:5,leave:4:6,join:6:5,rejoin:9:2,leave:11:4,join:13:4,restart:15:2,crash:17:3,join:20:3,rejoin:24:2,leave:26:3,join:30:2",
			"ticks=141 out=26569 in=19422 hellos=3080 dropped=5793 live=95 nodes=110 hash=8ee5d5b475565c47"},
	} {
		sched, err := ParseChurn(c.churn)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			cfg := Config{N: c.n, Seed: c.seed, Lockstep: true, Shards: shards, Churn: sched}
			cfg.Transport = WithLoss(cfg.DefaultTransport(0), 0.2, c.seed+101)
			res, err := Run(context.Background(), cfg, testTokens(c.k, c.d, c.seed))
			if err != nil || !res.Completed {
				t.Fatalf("%s shards %d: completed=%v err=%v", c.churn, shards, res != nil && res.Completed, err)
			}
			h := fnv.New64a()
			var hellos int64
			for id, m := range res.Nodes {
				hellos += m.HellosOut
				fmt.Fprintf(h, "%d:%d/%d/%d/%d/%d/%d;", id, m.DoneTick, m.JoinTick, m.PacketsOut, m.PacketsIn, m.HellosOut, m.Dropped)
			}
			got := fmt.Sprintf("ticks=%d out=%d in=%d hellos=%d dropped=%d live=%d nodes=%d hash=%016x",
				res.Ticks, res.PacketsOut, res.PacketsIn, hellos, res.Dropped, res.FinalLive, len(res.Nodes), h.Sum64())
			if got != c.want {
				t.Errorf("%s shards %d: transcript moved:\n got %s\nwant %s", c.churn, shards, got, c.want)
			}
		}
	}
}
