package cluster

import (
	"context"
	"testing"
	"time"
)

// probeOpen puts a rule on cfg's transport that, at every tick from the
// second on, checks the run's open count against a walk of the run: the
// live nodes not Done plus the add events the churner has not popped.
// It returns how many ticks it checked.
func probeOpen(t *testing.T, cfg *Config, name string) *int {
	t.Helper()
	var r *run
	checked := new(int)
	cfg.Transport = WithRule(cfg.Transport, Rule{
		Decide: func(int, int, []byte, int64) Verdict { return Verdict{} },
		Observe: func(tick int64) {
			if r == nil {
				return
			}
			want := adds(r.ch.pending())
			for _, nd := range r.nodes {
				if nd != nil && nd.M.Live && !nd.M.Done {
					want++
				}
			}
			if got := r.open.Load(); got != int64(want) {
				t.Errorf("%s tick %d: open %d, the walk counts %d", name, tick, got, want)
			}
			*checked++
		},
		Watch: func(o Oracle) { r = o.(*run) },
	})
	return checked
}

// TestOpenCountsWhatTheWalkCounts: the completion account is kept where
// its terms change, and at every tick it equals what a walk of every
// node and every remaining churn event would count — over the churn
// transcripts' runs at one and three shards.
func TestOpenCountsWhatTheWalkCounts(t *testing.T) {
	for _, c := range []struct {
		n, k, d int
		seed    int64
		churn   string
	}{
		{48, 96, 200, 7, "crash:3:4,join:5:4,leave:8:2,restart:12:2"},
		{96, 128, 64, 5, "crash:3:5,leave:4:6,join:6:5,rejoin:9:2,leave:11:4,join:13:4,restart:15:2,crash:17:3,join:20:3,rejoin:24:2,leave:26:3,join:30:2"},
	} {
		sched, err := ParseChurn(c.churn)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			cfg := Config{N: c.n, Seed: c.seed, Lockstep: true, Shards: shards, Churn: sched}
			cfg.Transport = WithLoss(cfg.DefaultTransport(0), 0.2, c.seed+101)
			checked := probeOpen(t, &cfg, c.churn)
			res, err := Run(context.Background(), cfg, testTokens(c.k, c.d, c.seed))
			if err != nil || !res.Completed {
				t.Fatalf("%s shards %d: completed=%v err=%v", c.churn, shards, res != nil && res.Completed, err)
			}
			if *checked != res.Ticks-1 {
				t.Errorf("%s shards %d: checked %d of ticks 2..%d", c.churn, shards, *checked, res.Ticks)
			}
		}
	}
}

// TestNoOpAdditionHoldsTheRunOpenOnce: an add event with nothing to
// revive holds the run open until it is popped, and then no longer —
// the count is of events, not of the operations they turn out to be.
// Under lockstep the run equals the one without it (which completes
// after its tick anyway); under the wall clock it completes.
func TestNoOpAdditionHoldsTheRunOpenOnce(t *testing.T) {
	const n, k = 8, 32
	run := func(churn string, lockstep bool) *Result {
		t.Helper()
		sched, err := ParseChurn(churn)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{N: n, Seed: 3, Lockstep: lockstep, Churn: sched, Timeout: 20 * time.Second}
		cfg.Transport = cfg.DefaultTransport(0)
		var checked *int
		if lockstep {
			checked = probeOpen(t, &cfg, churn)
		}
		res, err := Run(context.Background(), cfg, testTokens(k, 32, 3))
		if err != nil || !res.Completed {
			t.Fatalf("%s lockstep=%v: completed=%v err=%v", churn, lockstep, res != nil && res.Completed, err)
		}
		if lockstep && *checked == 0 {
			t.Fatalf("%s: the probe checked no tick", churn)
		}
		res.Elapsed = 0
		return res
	}
	with, without := run("crash:3:1,restart:4:1,restart:5:1", true), run("crash:3:1,restart:4:1", true)
	if with.Ticks <= 5 {
		t.Fatalf("the run completes at tick %d, before the no-op restart at 5: the comparison shows nothing", with.Ticks)
	}
	if with.Outcome != without.Outcome {
		t.Errorf("the no-op restart moved the run: %+v, without it %+v", with.Outcome, without.Outcome)
	}
	for id := range with.Nodes {
		if with.Nodes[id] != without.Nodes[id] {
			t.Errorf("node %d: %+v, without the no-op restart %+v", id, with.Nodes[id], without.Nodes[id])
		}
	}
	run("crash:3:1,restart:4:1,restart:5:1", false)
}
