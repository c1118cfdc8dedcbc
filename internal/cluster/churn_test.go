package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseChurn(t *testing.T) {
	s, err := ParseChurn("join:500:2,crash:1000:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []ChurnEvent{{ChurnJoin, 500, 2}, {ChurnCrash, 1000, 1}}
	if !reflect.DeepEqual(s.Events, want) {
		t.Errorf("events %+v, want %+v", s.Events, want)
	}
	if s.Joins() != 2 {
		t.Errorf("Joins() = %d, want 2", s.Joins())
	}
	if got := s.String(); got != "join:500:2,crash:1000:1" {
		t.Errorf("String() = %q", got)
	}

	// Out-of-order input is sorted by tick.
	s, err = ParseChurn(" rejoin:40:1, crash:10:1 ,restart:30:1,leave:20:1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Fatalf("events not sorted: %+v", s.Events)
		}
	}
	if err := s.Validate(); err != nil {
		t.Errorf("sorted parse does not validate: %v", err)
	}

	if s, err := ParseChurn(""); s != nil || err != nil {
		t.Errorf("empty schedule -> %v, %v; want nil, nil", s, err)
	}

	bad := []string{
		"join:500",          // missing count
		"meteor:10:1",       // unknown kind
		"join:0:1",          // tick must be positive
		"join:-5:1",         // negative tick
		"join:10:0",         // zero count
		"join:ten:1",        // non-numeric tick
		"join:10:1,,",       // empty event
		"crash:10:1;join:1", // wrong separator
	}
	for _, in := range bad {
		if _, err := ParseChurn(in); err == nil {
			t.Errorf("ParseChurn(%q) accepted", in)
		}
	}
}

func TestChurnScheduleValidate(t *testing.T) {
	if err := (&ChurnSchedule{Events: []ChurnEvent{{ChurnCrash, 20, 1}, {ChurnJoin, 10, 1}}}).Validate(); err == nil {
		t.Error("unsorted schedule validated")
	}
	if err := (&ChurnSchedule{Events: []ChurnEvent{{ChurnKind(9), 10, 1}}}).Validate(); err == nil {
		t.Error("unknown kind validated")
	}
	var nilSched *ChurnSchedule
	if err := nilSched.Validate(); err != nil {
		t.Errorf("nil schedule: %v", err)
	}
}

func TestViewPickMatchesStaticSampling(t *testing.T) {
	// The membership view's uniform peer pick must reproduce the static
	// runtimes' draw exactly when the view is full: one Intn(n-1), with
	// r >= self mapping to r+1. This is what keeps churnless transcripts
	// bit-identical to the pre-membership pipeline.
	const n, self = 9, 4
	v := NewView(self, n)
	v.Fill(n, 0)
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		want := a.Intn(n - 1)
		if want >= self {
			want++
		}
		if got := v.Pick(b, 0); got != want {
			t.Fatalf("draw %d: Pick %d, static mapping %d", i, got, want)
		}
	}
}

func TestViewSuspicion(t *testing.T) {
	v := NewView(0, 4)
	v.Fill(4, 10)
	v.SuspectAfter = 5
	if !v.Eligible(2, 15) {
		t.Error("peer heard at 10 suspected at 15 with threshold 5")
	}
	if v.Eligible(2, 16) {
		t.Error("peer heard at 10 still eligible at 16 with threshold 5")
	}
	if !v.Eligible(0, 1000) {
		t.Error("self suspected")
	}
	v.Mark(2, 20) // heard again: reinstated
	if !v.Eligible(2, 24) {
		t.Error("reinstated peer still suspected")
	}
	v.Remove(2)
	if v.Eligible(2, 21) || v.Live(2) {
		t.Error("removed peer still in view")
	}
	if v.LiveCount() != 3 {
		t.Errorf("LiveCount = %d, want 3", v.LiveCount())
	}
}

// churnRun is the canonical seeded lockstep churn run shared by the
// determinism and completion tests: joins, a graceful leave, a crash
// and a persisted restart, under loss.
func churnRun(t *testing.T, seed int64, schedule string, mode Mode) *Result {
	t.Helper()
	sched, err := ParseChurn(schedule)
	if err != nil {
		t.Fatal(err)
	}
	const n, k, d = 10, 10, 48
	cfg := Config{N: n, Seed: seed, Mode: mode, Lockstep: true, Churn: sched, MaxTicks: 100000}
	cfg.Transport = WithLoss(cfg.DefaultTransport(0), 0.2, seed*17+1)
	res, err := Run(context.Background(), cfg, testTokens(k, d, 7))
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed = 0 // wall clock is the one legitimately impure field
	return res
}

// TestLockstepChurnDeterministic is the acceptance-criteria property:
// a lockstep churn run — joins, leaves, crashes, restarts, loss — is a
// pure function of the seed, bit for bit across every node's metrics.
func TestLockstepChurnDeterministic(t *testing.T) {
	const schedule = "join:5:1,crash:8:1,leave:12:1,restart:15:1,join:18:2,rejoin:25:1"
	pure := func(s uint16, coded bool) bool {
		seed := int64(s) + 1
		mode := Forward
		if coded {
			mode = Coded
		}
		a := churnRun(t, seed, schedule, mode)
		b := churnRun(t, seed, schedule, mode)
		return reflect.DeepEqual(a, b)
	}
	cfg := &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(pure, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLockstepChurnCompletesAndVerifies drives every churn kind
// through the lockstep driver under loss and checks the membership
// bookkeeping: the run completes, crashed/left nodes are excluded,
// joiners caught up (Run decode-verified every live node before
// returning).
func TestLockstepChurnCompletesAndVerifies(t *testing.T) {
	for _, mode := range []Mode{Coded, Forward} {
		res := churnRun(t, 3, "join:5:1,crash:8:1,leave:12:1,restart:15:1,join:18:2", mode)
		if !res.Completed {
			t.Fatalf("%v churn run incomplete after %d ticks", mode, res.Ticks)
		}
		spawned, live := 0, 0
		for id, m := range res.Nodes {
			if m.Spawned {
				spawned++
			}
			if m.Live {
				live++
				if !m.Done {
					t.Errorf("%v: live node %d not done on a completed run", mode, id)
				}
			}
			if m.Spawned && m.JoinTick > 0 && m.Live && m.DoneTick < m.JoinTick {
				t.Errorf("%v: node %d done at tick %d before joining at %d", mode, id, m.DoneTick, m.JoinTick)
			}
		}
		if spawned != 13 { // 10 initial + 3 joins
			t.Errorf("%v: %d nodes spawned, want 13", mode, spawned)
		}
		// One crash (restarted), one leave, one crash... schedule: crash@8
		// restarts@15, leave@12 stays gone: 13 spawned - 1 leaver = 12,
		// unless the restart found no crashed node (impossible here).
		if live != 12 || res.FinalLive != 12 {
			t.Errorf("%v: %d live at end (FinalLive %d), want 12", mode, live, res.FinalLive)
		}
		if res.Ticks <= 18 {
			t.Errorf("%v: run completed at tick %d, before the last join at 18", mode, res.Ticks)
		}
		hellos := int64(0)
		for _, m := range res.Nodes {
			hellos += m.HellosOut
		}
		if hellos == 0 {
			t.Errorf("%v: no membership announcements sent in a churn run", mode)
		}
	}
}

// TestChurnlessRunsUnchanged pins that a nil churn schedule leaves the
// static-membership pipeline untouched: no hellos, all nodes live, and
// (via TestLockstepGoldenTranscripts) bit-identical transcripts.
func TestChurnlessRunsUnchanged(t *testing.T) {
	res, err := Run(context.Background(), Config{N: 8, Seed: 1, Lockstep: true}, testTokens(8, 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.FinalLive != 8 {
		t.Errorf("FinalLive = %d, want 8", res.FinalLive)
	}
	for id, m := range res.Nodes {
		if !m.Spawned || !m.Live || m.HellosOut != 0 || m.JoinTick != 0 {
			t.Errorf("node %d: churn fields touched without churn: %+v", id, m)
		}
	}
}

// TestAsyncChurnCrashJoinCompletes is the async churn integration
// test: a node crashes mid-run, a fresh node joins, and the run must
// still complete with every live node decode-verified (Run verifies
// before returning) — under loss, with goroutines starting and
// stopping mid-run. It is the -race workout for the redesigned
// completion accounting and is skipped under -short.
func TestAsyncChurnCrashJoinCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration test skipped with -short")
	}
	const n, k, d = 12, 12, 64
	sched, err := ParseChurn("crash:20:1,join:30:1,leave:45:1,restart:60:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N: n, Seed: 6, Churn: sched, Timeout: 20 * time.Second,
		Interval: 200 * time.Microsecond,
	}
	cfg.Transport = WithLoss(cfg.DefaultTransport(0), 0.1, 12)
	res, err := Run(context.Background(), cfg, testTokens(k, d, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("async churn run did not complete")
	}
	if res.FinalLive != n {
		// 12 initial - crash + join - leave + restart = 12.
		t.Errorf("FinalLive = %d, want %d", res.FinalLive, n)
	}
	joiner := &res.Nodes[n]
	if !joiner.Spawned || !joiner.Live || !joiner.Done {
		t.Errorf("joiner: %+v", joiner)
	}
	if joiner.JoinTick < 30 || joiner.DoneTick < joiner.JoinTick {
		t.Errorf("joiner done at tick %d, joined at %d: want it to join at its event's tick 30 or later and finish after", joiner.DoneTick, joiner.JoinTick)
	}
	left := 0
	for _, m := range res.Nodes {
		if m.Spawned && !m.Live {
			left++
		}
	}
	if left != 1 {
		t.Errorf("%d departed nodes at end, want 1 (the leaver; crash was restarted)", left)
	}
}

// TestChurnRejectsBadSchedule covers Run's schedule validation.
func TestChurnRejectsBadSchedule(t *testing.T) {
	bad := &ChurnSchedule{Events: []ChurnEvent{{ChurnJoin, -1, 1}}}
	if _, err := Run(context.Background(), Config{N: 4, Lockstep: true, Churn: bad}, testTokens(4, 8, 1)); err == nil {
		t.Error("invalid schedule accepted")
	} else if !strings.Contains(err.Error(), "tick") {
		t.Errorf("error %v does not explain the invalid tick", err)
	}
	// A negative join count that outweighs N must be an error too, not a
	// panic while the per-node table is sized (MaxNodes).
	bad = &ChurnSchedule{Events: []ChurnEvent{{ChurnJoin, 5, -9}}}
	if _, err := Run(context.Background(), Config{N: 4, Lockstep: true, Churn: bad}, testTokens(4, 8, 1)); err == nil {
		t.Error("negative join count accepted")
	} else if !strings.Contains(err.Error(), "count") {
		t.Errorf("error %v does not explain the invalid count", err)
	}
}

// TestLockstepChurnGridCompletes sweeps churn schedules × seeds × modes
// through the lockstep cluster driver and requires completion: the
// one-shot runtime keeps recoding until every live node (including late
// joiners) holds everything, so no schedule that leaves two nodes alive
// may stall it.
func TestLockstepChurnGridCompletes(t *testing.T) {
	schedules := []string{
		"crash:15:1",
		"crash:12:1,leave:20:1,join:25:1",
		"join:5:2,crash:18:1,restart:40:1",
		"leave:8:1,crash:16:1,rejoin:45:1",
	}
	for _, schedule := range schedules {
		for seed := int64(1); seed <= 3; seed++ {
			for _, mode := range []Mode{Coded, Forward} {
				res := churnRun(t, seed, schedule, mode)
				if !res.Completed {
					t.Errorf("schedule %q seed %d %v stalled after %d ticks", schedule, seed, mode, res.Ticks)
				}
			}
		}
	}
}

// TestLockstepChurnAggregateMetrics pins the Result aggregate math
// across a churned run: every aggregate equals the sum over the
// per-node slots with each id counted exactly once. Leavers and
// crashers keep their final counters in the sum, restarts and rejoins
// reuse their id's slot rather than adding one (so their pre-outage
// traffic is never double-counted), unspawned ids stay zero, and
// FinalLive matches the Live flags.
func TestLockstepChurnAggregateMetrics(t *testing.T) {
	const schedule = "join:5:1,crash:8:1,leave:12:1,restart:15:1,join:18:2,rejoin:25:1"
	sched, err := ParseChurn(schedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Coded, Forward} {
		res := churnRun(t, 11, schedule, mode)
		if !res.Completed {
			t.Fatalf("%v churn run incomplete after %d ticks", mode, res.Ticks)
		}
		// One slot per id over the whole id space: a restart or rejoin
		// must reuse its node's slot, not append a fresh one.
		if want := 10 + sched.Joins(); len(res.Nodes) != want {
			t.Fatalf("%v: %d node slots, want %d (restart/rejoin must reuse slots)", mode, len(res.Nodes), want)
		}
		var out, in, bits, dropped int64
		live, departed := 0, 0
		for id, m := range res.Nodes {
			if !m.Spawned {
				if m.PacketsOut != 0 || m.PacketsIn != 0 || m.BitsOut != 0 || m.Dropped != 0 || m.Live {
					t.Errorf("%v: unspawned id %d has nonzero metrics %+v", mode, id, m)
				}
				continue
			}
			out += m.PacketsOut
			in += m.PacketsIn
			bits += m.BitsOut
			dropped += m.Dropped
			if m.Live {
				live++
			} else if m.PacketsOut > 0 {
				departed++ // leaver/crasher whose traffic stays counted
			}
		}
		if res.PacketsOut != out || res.PacketsIn != in || res.BitsOut != bits || res.Dropped != dropped {
			t.Errorf("%v: aggregates (%d,%d,%d,%d) != per-node sums (%d,%d,%d,%d)",
				mode, res.PacketsOut, res.PacketsIn, res.BitsOut, res.Dropped, out, in, bits, dropped)
		}
		if res.FinalLive != live {
			t.Errorf("%v: FinalLive = %d, want %d live flags", mode, res.FinalLive, live)
		}
		if departed == 0 {
			t.Errorf("%v: schedule has a leave and a crash but no departed node kept its counters", mode)
		}
	}
}
