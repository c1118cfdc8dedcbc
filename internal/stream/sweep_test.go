package stream

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/token"
)

// TestSmallWorldChurnSweepPinned pins both protocols' lockstep runs
// over a grid of small worlds under churn: every node's counters, and
// whether, when and with how many live nodes each run ended. Small
// worlds are where completion accounting has corners — a batch that
// crashes and revives the same node, an addition with nothing to
// revive, a node done the tick it crashes, a cluster churned down to
// one node, runs that never complete and spin to the tick cap — so a
// driver change that moves when a run may end moves this hash.
func TestSmallWorldChurnSweepPinned(t *testing.T) {
	schedules := []string{
		"crash:3:1,restart:9:1",
		"leave:4:1,join:6:2",
		"crash:2:2,rejoin:8:1,join:10:1",
		"join:2:1,crashmax:4:1,restart:7:1",
		"crashfrontier:3:1,leave:5:1,join:5:1,rejoin:12:1",
		"crash:3:1,restart:4:1,restart:5:1,crash:6:1,restart:6:1",
	}
	const want = "runs=864 completed=800 hash=21f40ee6e5c86b21"
	h := fnv.New64a()
	runs, completed := 0, 0
	record := func(o cluster.Outcome, nodes string) {
		runs++
		if o.Completed {
			completed++
		}
		fmt.Fprintf(h, "%v/%d/%d|%s\n", o.Completed, o.Ticks, o.FinalLive, nodes)
	}
	ctx := context.Background()
	for _, n := range []int{3, 4, 5, 8} {
		for _, schedule := range schedules {
			sched, err := cluster.ParseChurn(schedule)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				for _, loss := range []float64{0, 0.3} {
					for _, shards := range []int{1, 3} {
						for _, mode := range []cluster.Mode{cluster.Coded, cluster.Forward} {
							cfg := cluster.Config{N: n, Mode: mode, Seed: seed, Lockstep: true, Shards: shards, MaxTicks: 300, Churn: sched}
							cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(0), loss, seed+11)
							res, err := cluster.Run(ctx, cfg, token.RandomSet(6, 32, rand.New(rand.NewSource(seed))))
							if err != nil {
								t.Fatalf("n=%d %q seed %d loss %v shards %d %v: %v", n, schedule, seed, loss, shards, mode, err)
							}
							record(res.Outcome, fmt.Sprint(res.Nodes))
						}
						cfg := Config{
							N: n, K: 4, PayloadBits: 32, Window: 2, Generations: 5,
							Seed: seed, Lockstep: true, Shards: shards, MaxTicks: 600, Churn: sched, SuspectTicks: 12,
						}
						cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), loss, seed+13)
						res, err := Run(ctx, cfg)
						if err != nil {
							t.Fatalf("stream n=%d %q seed %d loss %v shards %d: %v", n, schedule, seed, loss, shards, err)
						}
						record(res.Outcome, fmt.Sprint(res.Nodes))
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("runs=%d completed=%d hash=%016x", runs, completed, h.Sum64()); got != want {
		t.Errorf("the sweep moved:\n got %s\nwant %s", got, want)
	}
}
