package cluster

import (
	"context"
	"maps"
	"slices"
	"testing"
)

// TestOracleReadsPublishOnly pins the run's one definition of progress
// and liveness, as its rules are handed it: Progress is what a node
// last published, 0 for an id never spawned, and Live is the run's live
// set over the spawned ids. Every packet sent from tick 2 on is
// dropped, so progress freezes once tick 2 has drained; then a crashed
// id is not live, a joiner's id is not live before its join and live at
// 0 after it, and a restarted id is live again at the progress it had
// when it crashed.
func TestOracleReadsPublishOnly(t *testing.T) {
	const n, k, joiner = 6, 12, 6
	sched, err := ParseChurn("crash:3:1,join:4:1,restart:6:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: n, Mode: Coded, Seed: 1, Lockstep: true, MaxTicks: 8, Churn: sched}
	var run Oracle
	live := map[int64][]bool{}    // by observed tick
	progress := map[int64][]int{} // by observed tick
	cfg.Transport = WithRule(cfg.DefaultTransport(0), Rule{
		Decide: func(_, _ int, _ []byte, tick int64) Verdict {
			if tick >= 2 {
				return Verdict{Act: Drop, Cause: DropPartition}
			}
			return Verdict{}
		},
		Observe: func(tick int64) {
			for id := 0; run != nil && id < cfg.MaxNodes(); id++ {
				live[tick] = append(live[tick], run.Live(id))
				progress[tick] = append(progress[tick], run.Progress(id))
			}
		},
		Watch: func(o Oracle) { run = o },
	})
	if _, err := Run(context.Background(), cfg, testTokens(k, 32, 1)); err != nil {
		t.Fatal(err)
	}
	if live[1] != nil || live[2] == nil || live[8] == nil {
		t.Fatalf("observed ticks %v: want the run handed over after tick 1", slices.Sorted(maps.Keys(live)))
	}
	victim := slices.Index(live[4], false)
	if victim < 0 || victim >= n || !live[3][victim] {
		t.Fatalf("live at ticks 3 and 4: %v, %v; want one founding node crashed at 3", live[3], live[4])
	}
	for tick := int64(2); tick <= 8; tick++ {
		crashed := tick >= 4 && tick <= 6
		if live[tick][victim] == crashed {
			t.Errorf("tick %d: crashed node %d Live %v", tick, victim, live[tick][victim])
		}
		if joined := tick >= 5; live[tick][joiner] != joined {
			t.Errorf("tick %d: joiner Live %v, want %v", tick, live[tick][joiner], joined)
		}
		if progress[tick][joiner] != 0 {
			t.Errorf("tick %d: joiner Progress %d, want 0 (nothing reaches it)", tick, progress[tick][joiner])
		}
	}
	if got, want := progress[7][victim], progress[3][victim]; got != want || got <= k/n {
		t.Errorf("restarted node %d: Progress %d, want %d, its progress at the crash, beyond its %d seeded tokens", victim, got, want, k/n)
	}
	if !slices.Equal(progress[3], progress[8]) {
		t.Errorf("progress moved with every packet dropped: %v at tick 3, %v at tick 8", progress[3], progress[8])
	}
}

// TestWatchReachesEveryRule: the run goes down a stack as a tick does,
// through a plain Layer too, to every rule of every schedule in it.
func TestWatchReachesEveryRule(t *testing.T) {
	watched := 0
	rule := Rule{
		Decide: func(int, int, []byte, int64) Verdict { return Verdict{} },
		Watch:  func(Oracle) { watched++ },
	}
	var tr Transport = WithRule(WithRule(NewChanTransport(2, 1), rule), rule)
	watch(WithRule(Layer{tr}, rule), Ranks{0, 0})
	if watched != 3 {
		t.Errorf("%d of 3 rules were handed the run", watched)
	}
}
