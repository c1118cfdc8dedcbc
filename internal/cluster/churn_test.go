package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/keyed"
	"repro/internal/rlnc"
	"repro/internal/sim"
	"repro/internal/token"
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

	// A schedule of every kind round-trips through String, and an
	// unknown kind's error lists every kind.
	every := &ChurnSchedule{}
	for k := ChurnJoin; k <= ChurnCrashFrontier; k++ {
		every.Events = append(every.Events, ChurnEvent{k, 10 * int(k+1), int(k) + 1})
	}
	if s, err := ParseChurn(every.String()); err != nil || !reflect.DeepEqual(s, every) {
		t.Errorf("ParseChurn(%q) = %+v, %v; want %+v", every, s, err, every)
	}
	if _, err := ParseChurn("meteor:10:1"); err == nil || !strings.Contains(err.Error(), "(want join|leave|crash|restart|rejoin|crashmax|crashfrontier)") {
		t.Errorf("unknown-kind error %v does not list every kind", err)
	}

	bad := []string{
		"join:500",                            // missing count
		"meteor:10:1",                         // unknown kind
		"join:0:1",                            // tick must be positive
		"join:-5:1",                           // negative tick
		"join:10:0",                           // zero count
		"join:ten:1",                          // non-numeric tick
		"join:10:1,,",                         // empty event
		"crash:10:1;join:1",                   // wrong separator
		"join:5:9223372036854775807,join:6:1", // joins overflow an int
		"join:5:100000000000",                 // joins past the wire's ids
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
	for _, k := range []ChurnKind{-1, ChurnCrashFrontier + 1, 9} {
		if err := (&ChurnSchedule{Events: []ChurnEvent{{k, 10, 1}}}).Validate(); err == nil {
			t.Errorf("unknown kind %d validated", k)
		}
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
	if !v.eligible(2, 15) {
		t.Error("peer heard at 10 suspected at 15 with threshold 5")
	}
	if v.eligible(2, 16) {
		t.Error("peer heard at 10 still eligible at 16 with threshold 5")
	}
	if !v.eligible(0, 1000) {
		t.Error("self suspected")
	}
	v.Mark(2, 20) // heard again: reinstated
	if !v.eligible(2, 24) {
		t.Error("reinstated peer still suspected")
	}
	v.Remove(2)
	if v.eligible(2, 21) || v.Live(2) {
		t.Error("removed peer still in view")
	}
	if v.LiveCount() != 3 {
		t.Errorf("LiveCount = %d, want 3", v.LiveCount())
	}
}

// runKeepingStates is Run that also hands back every id's protocol
// state, each incarnation's as spawn built it: the last entry of an id
// is what it holds when the run stops. spawned, when non-nil, sees each
// incarnation's shell before its protocol is built.
func runKeepingStates(t *testing.T, cfg Config, toks []token.Token, spawned func(*Node)) (*Result, [][]*oneShot) {
	t.Helper()
	nodes := make([]NodeMetrics, cfg.MaxNodes())
	states := make([][]*oneShot, len(nodes))
	eng := oneShotEngine(cfg.Mode, cfg.N, toks, func(id int) *NodeMetrics { return &nodes[id] })
	build := eng.New
	var mu sync.Mutex // the founding batch spawns on every shard at once
	eng.New = func(nd *Node, joiner bool) Protocol {
		if spawned != nil {
			spawned(nd)
		}
		p := build(nd, joiner)
		mu.Lock()
		states[nd.ID] = append(states[nd.ID], p.(*oneShot))
		mu.Unlock()
		return p
	}
	out, err := eng.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Result{Outcome: out, Nodes: nodes}, states
}

// held is how much of the k tokens a stopped run's live nodes hold
// between them: distinct tokens (forward) or the joint rank of their
// spans (coded). Below k a token left with a node that crashed, or
// with a leaver whose hand-over the fabric lost, and no amount of
// gossip among the survivors completes the run.
func held(res *Result, states [][]*oneShot, k int) int {
	set := token.NewSet()
	var joint *rlnc.Span
	rng := rand.New(rand.NewSource(1))
	for id, lives := range states {
		if len(lives) == 0 || !res.Nodes[id].Live {
			continue
		}
		switch g := lives[len(lives)-1].g.(type) {
		case *forwardNode:
			for _, tok := range g.set.Tokens() {
				set.Add(tok)
			}
		case *codedNode:
			if joint == nil {
				joint = rlnc.NewSpan(k, g.span.PayloadBits())
			}
			// A span shows its rows only through combinations: k+64 random
			// ones miss a dimension of it with probability 2⁻⁶⁴.
			for i := 0; i < k+64; i++ {
				if c, ok := g.span.RandomCombination(rng); ok {
					joint.Add(c)
				}
			}
		}
	}
	if joint != nil {
		return joint.Rank()
	}
	return set.Len()
}

// churnRunStates is the canonical seeded lockstep churn run shared by
// the determinism and completion tests: joins, a graceful leave, a crash
// and a persisted restart, under loss.
func churnRunStates(t *testing.T, seed int64, schedule string, mode Mode, spawned func(*Node)) (*Result, [][]*oneShot) {
	t.Helper()
	sched, err := ParseChurn(schedule)
	if err != nil {
		t.Fatal(err)
	}
	const n, k, d = 10, 10, 48
	cfg := Config{N: n, Seed: seed, Mode: mode, Lockstep: true, Churn: sched, MaxTicks: 100000}
	cfg.Transport = WithLoss(cfg.DefaultTransport(0), 0.2, seed*17+1)
	res, states := runKeepingStates(t, cfg, testTokens(k, d, 7), spawned)
	res.Elapsed = 0 // wall clock is the one legitimately impure field
	return res, states
}

func churnRun(t *testing.T, seed int64, schedule string, mode Mode) *Result {
	t.Helper()
	res, _ := churnRunStates(t, seed, schedule, mode, nil)
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
// joiners caught up after joining (Run decode-verified every live node
// before returning; a restarted node may have finished before it
// crashed).
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
			if id >= 10 && m.Live && m.DoneTick < m.JoinTick { // churnRun's n
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
// TestHelloBitsStayLogarithmic holds the one-shot runtime to the
// paper's message model under churn: a hello is its sender's view
// runs, so the hello bits a node sends a tick grow at most
// logarithmically in n. CI's churn line at n = 64, 256 and 1024 reads
// about 6, 10 and 9 bits a node a tick; a hello that listed its view
// id by id would grow with n.
func TestHelloBitsStayLogarithmic(t *testing.T) {
	sched, err := ParseChurn("join:5:2,crash:10:2,leave:14:2,restart:20:1")
	if err != nil {
		t.Fatal(err)
	}
	toks := token.RandomSet(16, 64, keyed.Rand(1, keyed.Payloads))
	var ns, perNodeTick []float64
	for _, n := range []int{64, 256, 1024} {
		res, err := Run(context.Background(), Config{N: n, Fanout: 2, Seed: 1, Lockstep: true, Churn: sched}, toks)
		if err != nil || !res.Completed {
			t.Fatalf("n=%d: completed=%v err=%v", n, res != nil && res.Completed, err)
		}
		var hello int64
		for _, m := range res.Nodes {
			hello += m.HelloBitsOut
		}
		ns = append(ns, float64(n))
		perNodeTick = append(perNodeTick, float64(hello)/float64(n*res.Ticks))
	}
	slope, err := sim.FitLogLogSlope(ns, perNodeTick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hello bits per node per tick %.2f at n = %v: slope %.3f", perNodeTick, ns, slope)
	if slope > 0.5 {
		t.Errorf("hello bits per node per tick %v at n = %v: log-log slope %.3f, want at most 0.5", perNodeTick, ns, slope)
	}
}

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
	// Joins that leave N no room in the wire's sender ids are rejected
	// before the per-node table is sized, not an out-of-memory crash.
	bad = &ChurnSchedule{Events: []ChurnEvent{{ChurnJoin, 5, maxIDs - 5}}}
	if _, err := Run(context.Background(), Config{N: 8, Lockstep: true, Churn: bad}, testTokens(4, 8, 1)); err == nil {
		t.Error("joins past the wire's ids accepted")
	} else if !strings.Contains(err.Error(), "sender ids") {
		t.Errorf("error %v does not explain the id space", err)
	}
}

// TestChurnEventEndsAtFirstNoOp: an event whose count the cluster
// cannot absorb — more crashes or leaves than nodes, more joins than
// ids, more restarts than crashed nodes — applies what it can and
// stops, with the ops and the draws of a count just past what it can
// absorb. A count of 4·10⁹ used to spin through every no-op, and the
// test gives up on it after 10 s.
func TestChurnEventEndsAtFirstNoOp(t *testing.T) {
	const n, maxN, huge = 8, 10, maxIDs - 1
	for _, spec := range []string{"crash:3:%d", "leave:3:%d", "crashmax:3:%d", "crashfrontier:3:%d",
		"join:3:%d", "crash:2:3,restart:3:%d", "crash:2:3,rejoin:3:%d"} {
		// ops pops the schedule at count on a churner over maxN ids (so
		// joins run out after two) and returns its ops and next draw.
		ops := func(count int) ([]churnOp, int64) {
			sched, err := ParseChurn(fmt.Sprintf(spec, count))
			if err != nil {
				t.Fatal(err)
			}
			c := newChurner(sched, n, maxN, 1, make(Ranks, maxN))
			live := members(maxN, slices.Repeat([]bool{true}, n))
			done := make(chan []churnOp)
			go func() { done <- slices.Clone(c.popUntil(3, live)) }()
			select {
			case got := <-done:
				return got, c.rng.Int63()
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: popUntil still running after 10s", fmt.Sprintf(spec, count))
				return nil, 0
			}
		}
		want, wantNext := ops(maxN + 1)
		if got, next := ops(huge); !reflect.DeepEqual(got, want) || next != wantNext {
			t.Errorf("%s: count %d pops %v then draws %d; count %d pops %v then draws %d", spec, huge, got, next, maxN+1, want, wantNext)
		}
	}
}

// flagPickLive and flagPickTargeted are the churner's victim draws as
// they were over a slice of live flags, two scans of it each: the
// reference the draws over the run's membership View are held to.
func flagPickLive(rng *rand.Rand, live []bool) int {
	count := 0
	for _, l := range live {
		if l {
			count++
		}
	}
	if count < 2 {
		return -1
	}
	r := rng.Intn(count)
	for id, l := range live {
		if l {
			if r == 0 {
				return id
			}
			r--
		}
	}
	return -1
}

func flagPickTargeted(rank func(int) int, live []bool, max bool) int {
	count, victim, best := 0, -1, 0
	for id, l := range live {
		if !l {
			continue
		}
		count++
		r := rank(id)
		if victim < 0 || (max && r > best) || (!max && r < best) {
			victim, best = id, r
		}
	}
	if count < 2 {
		return -1
	}
	return victim
}

// TestVictimDrawsMatchFlagScans holds pickLive and pickTargeted over
// the membership View to the flag scans they replaced: over empty,
// single, dense and fragmented live sets and random rank oracles (with
// ties), a sequence of draws — each victim removed, as
// popUntil removes it — picks the same ids and leaves the churner's
// rng at the same next draw.
func TestVictimDrawsMatchFlagScans(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxN := 1 + rng.Intn(24)
		var live []bool
		switch seed % 4 {
		case 0:
			live = make([]bool, maxN)
		case 1:
			live = make([]bool, maxN)
			live[rng.Intn(maxN)] = true
		default:
			live = randomLive(rng, maxN)
		}
		ranks := make([]int, maxN)
		for id := range ranks {
			ranks[id] = rng.Intn(1 + rng.Intn(maxN))
		}
		rank := func(id int) int { return ranks[id] }
		view := members(maxN, live)
		c := &churner{rng: rand.New(rand.NewSource(seed)), run: Ranks(ranks)}
		ref := rand.New(rand.NewSource(seed))
		for step := 0; step < 6; step++ {
			var got, want int
			switch kind := rng.Intn(3); kind {
			case 0:
				got, want = c.pickLive(view), flagPickLive(ref, live)
			default:
				got, want = c.pickTargeted(view, kind == 1), flagPickTargeted(rank, live, kind == 1)
			}
			if got != want {
				t.Fatalf("seed %d step %d: View draw %d, flag scan %d", seed, step, got, want)
			}
			if got >= 0 {
				view.Remove(got)
				live[got] = false
			}
		}
		if got, want := c.rng.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: next draw %d, flag scans %d", seed, got, want)
		}
	}
}

// TestLockstepChurnGridCompletes sweeps churn schedules × seeds × modes
// through the lockstep cluster driver and requires completion of every
// run that can complete: the one-shot runtime keeps recoding until
// every live node (including late joiners) holds everything, so a run
// stalls only when a departed node took the last copy of a token with
// it — it crashed before any of its sends of that token arrived, or
// left and the hand-over (oneShot.Leave) was lost too — and then the
// survivors hold fewer than k between them; extinct below counts how
// many of this grid are such runs.
func TestLockstepChurnGridCompletes(t *testing.T) {
	schedules := []string{
		"crash:15:1",
		"crash:12:1,leave:20:1,join:25:1",
		"join:5:2,crash:18:1,restart:40:1",
		"leave:8:1,crash:16:1,rejoin:45:1",
	}
	const k = 10 // churnRun's
	runs, extinct := 0, 0
	for _, schedule := range schedules {
		for seed := int64(1); seed <= 24; seed++ {
			for _, mode := range []Mode{Coded, Forward} {
				res, states := churnRunStates(t, seed, schedule, mode, nil)
				runs++
				if res.Completed {
					continue
				}
				extinct++
				if h := held(res, states, k); h >= k {
					t.Errorf("schedule %q seed %d %v stalled after %d ticks with all %d tokens among its live nodes", schedule, seed, mode, res.Ticks, h)
				}
			}
		}
	}
	t.Logf("%d of %d runs lost a token with a departed node", extinct, runs)
	if 4*extinct > runs {
		t.Errorf("%d of %d runs lost a token: the grid no longer tests completion", extinct, runs)
	}
}

// TestLeaverHandsOver: a node that leaves at tick 1, before anyone has
// emitted, holds the only copies of its tokens, and the later leavers
// may be where they went; on a lossless fabric the hand-over alone is
// what lets the survivors complete. Two leavers of one tick hand over to
// neither each other: what goes to a peer departing in the same tick
// would be lost with it.
func TestLeaverHandsOver(t *testing.T) {
	const n, k = 8, 12
	for _, schedule := range []string{"leave:1:1,leave:2:1,leave:3:1", "leave:1:2,leave:2:1"} {
		sched, err := ParseChurn(schedule)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			for _, mode := range []Mode{Coded, Forward} {
				cfg := Config{N: n, Seed: seed, Mode: mode, Lockstep: true, Churn: sched, MaxTicks: 500}
				res, states := runKeepingStates(t, cfg, testTokens(k, 48, seed), nil)
				if !res.Completed || res.FinalLive != n-3 {
					t.Errorf("%s seed %d %v: completed=%v with %d live, the survivors hold %d of %d", schedule, seed, mode, res.Completed, res.FinalLive, held(res, states, k), k)
				}
			}
		}
	}
}

// TestRejoinDoesNotReplayFirstLife: a rejoin wipes an id and spawns it
// again under the same (seed, id); the spawn tick in the key is what
// keeps the second incarnation from redrawing the first one's peer
// picks and coding coins from word 0. Each incarnation's first word is
// the one its key names, the two differ, and a re-run of the seed
// reproduces both.
func TestRejoinDoesNotReplayFirstLife(t *testing.T) {
	const seed, schedule = 3, "crash:8:1,rejoin:25:1"
	type life struct {
		id    int
		spawn int64
		word  uint64
	}
	run := func() (rejoined []life) {
		var mu sync.Mutex // the founding batch spawns on every shard at once
		lives := map[int][]life{}
		res, _ := churnRunStates(t, seed, schedule, Coded, func(nd *Node) {
			// Drawing here moves the run off its pinned transcript, the
			// same way every time.
			mu.Lock()
			lives[nd.ID] = append(lives[nd.ID], life{nd.ID, nd.Now, nd.Rng.Uint64()})
			mu.Unlock()
		})
		if !res.Completed {
			t.Fatalf("run did not complete in %d ticks", res.Ticks)
		}
		for _, l := range lives {
			if len(l) > 1 {
				rejoined = append(rejoined, l...)
			}
		}
		return rejoined
	}
	got := run()
	if len(got) != 2 || got[0].id != got[1].id {
		t.Fatalf("incarnations of the rejoined id: %+v, want two of one id", got)
	}
	for _, l := range got {
		if want := keyed.Rand(seed, keyed.Node, int64(l.id), l.spawn).Uint64(); l.word != want {
			t.Errorf("id %d spawned at tick %d starts on %#x, its key says %#x", l.id, l.spawn, l.word, want)
		}
	}
	if got[0].spawn != 0 || got[1].spawn != 25 {
		t.Errorf("spawn ticks %d and %d, want 0 and 25", got[0].spawn, got[1].spawn)
	}
	if got[0].word == got[1].word {
		t.Errorf("id %d starts both lives on %#x", got[0].id, got[0].word)
	}
	if again := run(); !reflect.DeepEqual(again, got) {
		t.Errorf("a re-run of seed %d spawned %+v, want %+v", seed, again, got)
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
