package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestChurnTranscriptPinned pins a lockstep churn×loss run by
// everything in it that is a protocol decision — ticks, packets, hello
// and drop counts, every node's completion and (re)entry tick — and by
// nothing that is only how a packet is spelled on the wire (BitsOut).
// A codec change must leave every value here alone, at any shard count.
// The shape is cmd/cluster -n 48 -k 96 -payload 200 -loss 0.2
// -transport lockstep -seed 7 -churn crash:3:4,join:5:4, plus a leave and a restart so
// goodbyes and re-introduction bursts are in it too.
func TestChurnTranscriptPinned(t *testing.T) {
	const want = "ticks=95 out=8984 in=6698 hellos=388 dropped=1900 live=48 nodes=52 hash=fe7ec4b373f8174e"
	sched, err := ParseChurn("crash:3:4,join:5:4,leave:8:2,restart:12:2")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		cfg := Config{N: 48, Seed: 7, Lockstep: true, Shards: shards, Churn: sched}
		cfg.Transport = WithLoss(cfg.DefaultTransport(0), 0.2, 7+101)
		res, err := Run(context.Background(), cfg, testTokens(96, 200, 7))
		if err != nil || !res.Completed {
			t.Fatalf("shards %d: completed=%v err=%v", shards, res != nil && res.Completed, err)
		}
		h := fnv.New64a()
		var hellos int64
		for id, m := range res.Nodes {
			hellos += m.HellosOut
			fmt.Fprintf(h, "%d:%d/%d/%d/%d/%d/%d;", id, m.DoneTick, m.JoinTick, m.PacketsOut, m.PacketsIn, m.HellosOut, m.Dropped)
		}
		got := fmt.Sprintf("ticks=%d out=%d in=%d hellos=%d dropped=%d live=%d nodes=%d hash=%016x",
			res.Ticks, res.PacketsOut, res.PacketsIn, hellos, res.Dropped, res.FinalLive, len(res.Nodes), h.Sum64())
		if got != want {
			t.Errorf("shards %d: transcript moved:\n got %s\nwant %s", shards, got, want)
		}
	}
}
