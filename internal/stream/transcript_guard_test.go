package stream

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
)

// TestStreamChurnTranscriptPinned is the stream's twin of
// cluster.TestChurnTranscriptPinned: one lockstep crash+join+leave run under
// loss, pinned by every protocol decision (ticks, data, ack, hello and
// drop counts, each node's completion tick, entry tick and start
// generation) and by nothing that is only wire spelling (BitsOut).
func TestStreamChurnTranscriptPinned(t *testing.T) {
	const want = "ticks=186 out=8164 in=5762 hellos=126 acks=4083 dropped=3230 toks=1760 live=22 nodes=27 hash=0c9c3955aa4f1c18"
	sched, err := cluster.ParseChurn("crash:6:3,join:9:3,leave:14:2")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		cfg := Config{
			N: 24, K: 8, PayloadBits: 64, Window: 3, Generations: 10,
			Seed: 7, Lockstep: true, Shards: shards, MaxTicks: 100000, Churn: sched,
		}
		cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.2, 7+101)
		res, err := Run(context.Background(), cfg)
		if err != nil || !res.Completed {
			t.Fatalf("shards %d: completed=%v err=%v", shards, res != nil && res.Completed, err)
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
		if got != want {
			t.Errorf("shards %d: transcript moved:\n got %s\nwant %s", shards, got, want)
		}
	}
}
