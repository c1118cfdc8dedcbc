package cluster

import (
	"context"
	"fmt"
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

// TestFutileReviveHoldsNothingOpen: a restart with no crashed node left
// to revive, and no crash before it, holds nothing open — the churner
// drops it (churner.futile) — so a run whose schedule ends in one ends
// when its nodes are done, not at the event's tick. Under lockstep the
// run equals, node by node, the one without it; under the wall clock it
// completes well before the event's interval.
func TestFutileReviveHoldsNothingOpen(t *testing.T) {
	const n, k, futileAt = 8, 32, 400
	run := func(churn string, lockstep bool) *Result {
		t.Helper()
		sched, err := ParseChurn(churn)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{N: n, Seed: 3, Lockstep: lockstep, Churn: sched, Interval: time.Millisecond, Timeout: 20 * time.Second}
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
		return res
	}
	futile := fmt.Sprintf("crash:3:1,restart:4:1,restart:%d:1", futileAt)
	with, without := run(futile, true), run("crash:3:1,restart:4:1", true)
	if without.Ticks <= 4 {
		t.Fatalf("the run completes at tick %d, before its restart at 4: the comparison shows nothing", without.Ticks)
	}
	if with.Ticks >= futileAt {
		t.Errorf("the futile restart at tick %d held the run open to tick %d", futileAt, with.Ticks)
	}
	with.Elapsed, without.Elapsed = 0, 0
	if with.Outcome != without.Outcome {
		t.Errorf("the futile restart moved the run: %+v, without it %+v", with.Outcome, without.Outcome)
	}
	for id := range with.Nodes {
		if with.Nodes[id] != without.Nodes[id] {
			t.Errorf("node %d: %+v, without the futile restart %+v", id, with.Nodes[id], without.Nodes[id])
		}
	}
	if res := run(futile, false); res.Elapsed >= futileAt/2*time.Millisecond {
		t.Errorf("under the wall clock the run took %v, past half the futile restart's %d intervals", res.Elapsed, futileAt)
	}
}
