package stream

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
)

// TestChurnlessDecisionsPinned pins every protocol decision of churnless
// lockstep streams and nothing that is only wire spelling: the tick
// count and each node's full counter block, its bit counts (BitsOut,
// AckBitsOut) zeroed. The runs are the five lockstep goldens' configs
// and twenty lossy runs at n = 32, 64, 192 and 300 over windows 2 to 4.
// An ack that says the same thing in fewer bits, or more cheaply, leaves
// every line as it is.
func TestChurnlessDecisionsPinned(t *testing.T) {
	type run struct {
		cfg   Config
		loss  float64
		lseed int64
	}
	var runs []run
	for seed := int64(1); seed <= 5; seed++ {
		runs = append(runs, run{Config{N: 8, K: 6, PayloadBits: 48, Window: 3, Generations: 6, Seed: seed}, 0.2, seed + 3})
	}
	for _, n := range []int{32, 64, 192, 300} {
		for seed := int64(272); seed <= 276; seed++ {
			cfg := Config{N: n, K: 8, PayloadBits: 32, Window: 2 + int(seed%3), Generations: 10, Seed: seed}
			runs = append(runs, run{cfg, 0.1 + 0.05*float64(seed%3), seed})
		}
	}
	want := []string{
		"n=8 seed=1 ticks=55 hash=706e75818c1ebc30",
		"n=8 seed=2 ticks=65 hash=987c5e878b56e3af",
		"n=8 seed=3 ticks=52 hash=cd35fb9a9eef290d",
		"n=8 seed=4 ticks=55 hash=7f6bb297007c9f27",
		"n=8 seed=5 ticks=55 hash=587e0ef895d571f5",
		"n=32 seed=272 ticks=134 hash=d14e949917ff16dc",
		"n=32 seed=273 ticks=142 hash=48c72949594c673f",
		"n=32 seed=274 ticks=146 hash=9ba49b112868a5e6",
		"n=32 seed=275 ticks=147 hash=b564fb25fd9e88d0",
		"n=32 seed=276 ticks=148 hash=438a3de0aa325d82",
		"n=64 seed=272 ticks=160 hash=c5290661ddc1ef48",
		"n=64 seed=273 ticks=159 hash=80421f0e41225ce8",
		"n=64 seed=274 ticks=166 hash=1cd6da05884e3908",
		"n=64 seed=275 ticks=152 hash=2903af74c4ac65a0",
		"n=64 seed=276 ticks=171 hash=610ed562fbef007e",
		"n=192 seed=272 ticks=182 hash=2f31d109a1f39849",
		"n=192 seed=273 ticks=193 hash=a2caea58452e87d1",
		"n=192 seed=274 ticks=183 hash=6aa532024cdd4ba2",
		"n=192 seed=275 ticks=180 hash=4ec7f9caf2224f6e",
		"n=192 seed=276 ticks=185 hash=7d06e7e70d128b76",
		"n=300 seed=272 ticks=182 hash=eafef4af0018c8c6",
		"n=300 seed=273 ticks=202 hash=a0f10665e35e1377",
		"n=300 seed=274 ticks=185 hash=65421c2e76d464ea",
		"n=300 seed=275 ticks=199 hash=1a19137e50f85031",
		"n=300 seed=276 ticks=196 hash=e31533caa9af3ed5",
	}
	if len(want) != len(runs) {
		t.Fatalf("%d runs, %d pinned lines", len(runs), len(want))
	}
	for i, r := range runs {
		cfg := r.cfg
		cfg.Lockstep, cfg.MaxTicks = true, 200000
		cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), r.loss, r.lseed)
		res, err := Run(context.Background(), cfg)
		if err != nil || !res.Completed {
			t.Fatalf("n=%d seed %d: completed=%v err=%v", cfg.N, cfg.Seed, res != nil && res.Completed, err)
		}
		h := fnv.New64a()
		for _, m := range res.Nodes {
			m.BitsOut, m.AckBitsOut = 0, 0
			fmt.Fprintf(h, "%+v\n", m)
		}
		got := fmt.Sprintf("n=%d seed=%d ticks=%d hash=%016x", cfg.N, cfg.Seed, res.Ticks, h.Sum64())
		if got != want[i] {
			t.Errorf("run %d: got %s", i, got)
		}
	}
}

// TestChurnDecisionsPinned is TestChurnlessDecisionsPinned's twin under
// churn: 320 lockstep runs of n = 3 to 40 under eight schedules, every
// kind of event among them, lossless and at 20 % loss, hashed with each
// node's bit counts zeroed, and whether, when and with how many live
// nodes each ended.
func TestChurnDecisionsPinned(t *testing.T) {
	schedules := []string{
		"crash:3:1,restart:9:1",
		"leave:4:1,join:6:2",
		"crash:2:2,rejoin:8:1,join:10:1",
		"join:2:1,crashmax:4:1,restart:7:1",
		"crashfrontier:3:1,leave:5:1,join:5:1,rejoin:12:1",
		"crash:3:1,restart:4:1,restart:5:1,crash:6:1,restart:6:1",
		"crash:10:2,join:15:2,leave:20:1,restart:30:2,crash:32:1,rejoin:40:1",
		"crash:6:5,leave:9:6,join:14:5,rejoin:20:2,leave:26:4,join:31:4,restart:37:2,crash:42:3,join:48:3,rejoin:55:2,leave:60:3,join:66:2",
	}
	const want = "runs=320 completed=320 hash=4b367ed293fe4c19"
	h := fnv.New64a()
	runs, completed := 0, 0
	for _, n := range []int{3, 5, 8, 16, 40} {
		for _, schedule := range schedules {
			sched, err := cluster.ParseChurn(schedule)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 4; seed++ {
				for _, loss := range []float64{0, 0.2} {
					cfg := Config{
						N: n, K: 4, PayloadBits: 32, Window: 3, Generations: 12,
						Seed: seed, Lockstep: true, MaxTicks: 3000, Churn: sched, SuspectTicks: 12,
					}
					cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), loss, seed+13)
					res, err := Run(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					runs++
					if res.Completed {
						completed++
					}
					fmt.Fprintf(h, "%v/%d/%d|", res.Completed, res.Ticks, res.FinalLive)
					for _, m := range res.Nodes {
						m.BitsOut, m.AckBitsOut = 0, 0
						fmt.Fprintf(h, "%+v\n", m)
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("runs=%d completed=%d hash=%016x", runs, completed, h.Sum64()); got != want {
		t.Errorf("churn decisions moved:\n got %s\nwant %s", got, want)
	}
}
