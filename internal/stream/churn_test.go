package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// churnStreamRun is the canonical seeded lockstep churn stream shared
// by the determinism and completion tests.
func churnStreamRun(t *testing.T, seed int64, schedule string, loss float64) *Result {
	t.Helper()
	sched, err := cluster.ParseChurn(schedule)
	if err != nil {
		t.Fatal(err)
	}
	const n, k, d, gens, w = 12, 6, 48, 10, 4
	cfg := Config{
		N: n, K: k, PayloadBits: d, Window: w, Generations: gens,
		Seed: seed, Lockstep: true, MaxTicks: 200000,
		Churn: sched, SuspectTicks: 12,
	}
	cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), loss, seed*17+1)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed = 0 // wall clock is the one legitimately impure field
	return res
}

// TestLockstepStreamChurnDeterministic is the acceptance-criteria
// property for the streaming runtime: a lockstep churn run — joins,
// crashes, restarts, suspicion, orphan adoption, loss — is a pure
// function of the seed.
func TestLockstepStreamChurnDeterministic(t *testing.T) {
	const schedule = "crash:15:1,join:25:1,leave:35:1,restart:45:1"
	pure := func(s uint16) bool {
		seed := int64(s) + 1
		a := churnStreamRun(t, seed, schedule, 0.2)
		b := churnStreamRun(t, seed, schedule, 0.2)
		return reflect.DeepEqual(a, b)
	}
	cfg := &quick.Config{MaxCount: 5, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(pure, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestStreamJoinerCatchesUpUnderLoss is the joiner-catch-up contract:
// a node that joins mid-stream learns the retirement frontier from
// watermark gossip (StartGen > 0 when it joins after deliveries
// began), requests only live generations, and reaches the cluster
// watermark — all under 20% loss.
func TestStreamJoinerCatchesUpUnderLoss(t *testing.T) {
	res := churnStreamRun(t, 5, "join:30:1", 0.2)
	if !res.Completed {
		t.Fatalf("stream with a mid-run joiner incomplete after %d ticks", res.Ticks)
	}
	const n, gens = 12, 10
	j := &res.Nodes[n]
	if !j.Spawned || !j.Live || !j.Done {
		t.Fatalf("joiner state: %+v", j)
	}
	if j.JoinTick != 30 {
		t.Errorf("joiner JoinTick = %d, want 30", j.JoinTick)
	}
	if j.StartGen < 1 {
		t.Errorf("joiner StartGen = %d: joined at tick 30 but learned no frontier", j.StartGen)
	}
	if j.StartGen >= gens {
		t.Errorf("joiner StartGen = %d: nothing left to deliver in a %d-generation stream", j.StartGen, gens)
	}
	if j.Delivered != gens-j.StartGen {
		t.Errorf("joiner delivered %d generations, want %d (gens %d - StartGen %d)",
			j.Delivered, gens-j.StartGen, gens, j.StartGen)
	}
	if j.CaughtUpTick <= j.JoinTick {
		t.Errorf("joiner CaughtUpTick %d not after JoinTick %d", j.CaughtUpTick, j.JoinTick)
	}
	if j.DoneTick < j.CaughtUpTick {
		t.Errorf("joiner DoneTick %d before CaughtUpTick %d", j.DoneTick, j.CaughtUpTick)
	}
	// Founding nodes deliver the whole stream regardless of the join.
	for id := 0; id < n; id++ {
		if m := &res.Nodes[id]; m.Live && m.Delivered != gens {
			t.Errorf("node %d delivered %d of %d generations", id, m.Delivered, gens)
		}
	}
}

// TestStreamSurvivesOriginCrash pins the orphan-adoption path: crash
// nodes early — likely including origins of not-yet-opened
// generations — and the stream must still complete because the lowest
// live node re-sources tokens whose origin fell out of the view. The
// retirement frontier must likewise drop the crashed nodes (via
// suspicion) instead of deadlocking on their stale watermarks.
func TestStreamSurvivesOriginCrash(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := churnStreamRun(t, seed, "crash:8:2", 0.1)
		if !res.Completed {
			t.Fatalf("seed %d: stream incomplete after %d ticks with 2 crashed origins", seed, res.Ticks)
		}
		if res.FinalLive != 10 {
			t.Errorf("seed %d: FinalLive = %d, want 10", seed, res.FinalLive)
		}
		for id, m := range res.Nodes {
			if m.Live && m.Delivered != 10 {
				t.Errorf("seed %d: live node %d delivered %d of 10", seed, id, m.Delivered)
			}
		}
	}
}

// TestStreamRestartResumesBehindFrontier pins the persisted-restart
// semantics: a node that crashes and restarts re-learns the frontier
// before resuming, forfeiting generations the cluster retired while it
// was down instead of deadlocking the watermark minimum on them.
func TestStreamRestartResumesBehindFrontier(t *testing.T) {
	res := churnStreamRun(t, 7, "crash:10:1,restart:60:1", 0.1)
	if !res.Completed {
		t.Fatalf("stream incomplete after %d ticks across a crash-restart", res.Ticks)
	}
	if res.FinalLive != 12 {
		t.Errorf("FinalLive = %d, want 12", res.FinalLive)
	}
	restarted := -1
	for id, m := range res.Nodes {
		if m.JoinTick == 60 {
			restarted = id
		}
	}
	if restarted < 0 {
		t.Fatal("no node restarted at tick 60")
	}
	m := &res.Nodes[restarted]
	if !m.Done || !m.Live {
		t.Errorf("restarted node %d: %+v", restarted, m)
	}
}

// TestStreamChurnlessUnchanged pins that a nil schedule leaves the
// static pipeline untouched (the golden-transcript test is the strong
// bit-level version of this).
func TestStreamChurnlessUnchanged(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N: 8, K: 4, PayloadBits: 32, Window: 2, Generations: 4, Seed: 4, Lockstep: true,
	})
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
		if !m.Spawned || !m.Live || m.HellosOut != 0 || m.StartGen != 0 || m.CaughtUpTick != 0 {
			t.Errorf("node %d: churn fields touched without churn: %+v", id, m)
		}
	}
}

// TestAsyncStreamChurnCrashJoin is the async churn integration test
// for the streaming runtime: a node crashes mid-stream, a fresh node
// joins and catches up to the watermark, under loss, -race clean. The
// run must complete with every live node's deliveries source-verified
// (Run verifies every delivery inline).
func TestAsyncStreamChurnCrashJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("stream integration test skipped with -short")
	}
	const n, k, d, gens, w = 12, 6, 64, 10, 4
	sched, err := cluster.ParseChurn("crash:25:1,join:40:1")
	if err != nil {
		t.Fatal(err)
	}
	maxN := n + sched.Joins()
	var tr cluster.Transport = cluster.NewChanTransport(maxN, 8*maxN)
	tr = cluster.WithLoss(tr, 0.15, 21)
	res, err := Run(context.Background(), Config{
		N: n, K: k, PayloadBits: d, Window: w, Generations: gens,
		Seed: 9, Transport: tr, Timeout: 20 * time.Second,
		Interval: 200 * time.Microsecond, Churn: sched, SuspectTicks: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("async churn stream did not complete")
	}
	if res.FinalLive != n {
		t.Errorf("FinalLive = %d, want %d", res.FinalLive, n)
	}
	j := &res.Nodes[n]
	if !j.Spawned || !j.Live || !j.Done {
		t.Errorf("joiner state: %+v", j)
	}
	if j.JoinTick < 40 || j.DoneTick < j.JoinTick {
		t.Errorf("joiner done at tick %d, joined at %d: want it to join at its event's tick 40 or later and finish after", j.DoneTick, j.JoinTick)
	}
	// A joiner that still had generations to deliver must have recorded
	// its catch-up after the join. (Under -race the scheduler can slow
	// the run enough that the join lands after the stream finished —
	// StartGen == gens — in which case there is nothing to catch up to.)
	if j.StartGen > 0 && j.StartGen < gens && j.CaughtUpTick < j.JoinTick {
		t.Errorf("joiner caught up at tick %d before joining at %d", j.CaughtUpTick, j.JoinTick)
	}
	if j.Delivered != gens-j.StartGen {
		t.Errorf("joiner delivered %d, want %d", j.Delivered, gens-j.StartGen)
	}
}

// TestStreamRejectsEpochOverflow pins the generation/epoch aliasing
// regression: a stream longer than the 32-bit wire epoch space must be
// rejected up front instead of silently aliasing generation g with
// g+2^32 on the wire.
func TestStreamRejectsEpochOverflow(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a stream longer than the wire epoch space is unrepresentable in int on this platform")
	}
	var over64 int64 = 1 << 33 // runtime-computed so 32-bit builds still compile
	_, err := Run(context.Background(), Config{
		N: 2, K: 1, PayloadBits: 1, Generations: int(over64), Lockstep: true,
	})
	if err == nil {
		t.Fatal("2^33 generations accepted")
	}
}

// TestLockstepStreamChurnGridCompletes sweeps a grid of churn
// schedules × seeds through the lockstep driver and requires every run
// to complete: with catch-up serving, orphan adoption and clock-driven
// frontier re-evaluation, no schedule that leaves at least two nodes
// alive may stall the stream. (Each stall mode this PR fixed —
// stale-stamp refresh, sampling suspicion, packet-only advance — first
// showed up as a hang a sweep like this one would have caught.)
func TestLockstepStreamChurnGridCompletes(t *testing.T) {
	schedules := []string{
		"crash:15:1",
		"crash:15:1,leave:40:1",
		"leave:10:1,crash:20:1,join:30:1",
		"crash:8:2,restart:50:1",
		"join:5:2,crash:25:1,rejoin:60:1",
		"crash:15:1,crash:45:1,join:70:1",
	}
	for _, schedule := range schedules {
		for seed := int64(1); seed <= 3; seed++ {
			res := churnStreamRun(t, seed, schedule, 0.2)
			if !res.Completed {
				t.Errorf("schedule %q seed %d stalled after %d ticks", schedule, seed, res.Ticks)
			}
		}
	}
}

// TestStreamNoStarvationAfterRejoin: a generation leaves a node's
// emission rotation once every peer has acked it at full rank. A node
// that rejoins with wiped state, or a joiner in a leaver's place, still
// lacks it, and both used to be starved until the tick cap: the tally
// kept the rejoined node's old bit and the leaver's. The two commands
// first, then a slice of small worlds around the same ticks.
func TestStreamNoStarvationAfterRejoin(t *testing.T) {
	run := func(n int, seed int64, schedule string, loss float64, suspect, maxTicks int) {
		t.Helper()
		sched, err := cluster.ParseChurn(schedule)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			N: n, K: 16, PayloadBits: 32, Window: 6, Generations: 12,
			Seed: seed, Lockstep: true, MaxTicks: maxTicks, Churn: sched, SuspectTicks: suspect,
		}
		cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), loss, seed*7+1)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Errorf("n=%d seed %d loss %v %q stalled after %d ticks", n, seed, loss, schedule, res.Ticks)
		}
	}
	// cmd/stream -n 3 -k 16 -payload 32 -window 6 -generations 12
	// -transport lockstep -seed 3 -maxticks 20000 -churn <schedule>
	run(3, 3, "crash:23:1,rejoin:23:1", 0, 0, 20000)
	run(3, 3, "leave:23:1,join:23:1", 0, 0, 20000)
	for _, n := range []int{3, 4} {
		for _, at := range []int{23, 29, 35} {
			for _, kinds := range [][2]string{{"crash", "rejoin"}, {"leave", "join"}} {
				for seed := int64(1); seed <= 6; seed++ {
					for _, loss := range []float64{0, 0.3} {
						run(n, seed, fmt.Sprintf("%s:%d:1,%s:%d:1", kinds[0], at, kinds[1], at), loss, 40, 6000)
					}
				}
			}
		}
	}
}

// TestLockstepStreamChurnAggregateMetrics pins the stream Result
// aggregate math across a churned run: aggregates equal the per-node
// sums with each id counted exactly once (restart/rejoin reuse their
// slot, so pre-outage traffic is not double-counted; leavers and
// crashers keep their final counters), TokensDelivered is the
// K-scaled sum of per-node generation deliveries, unspawned ids stay
// zero, and FinalLive matches the Live flags.
func TestLockstepStreamChurnAggregateMetrics(t *testing.T) {
	const schedule = "join:5:1,crash:8:1,leave:12:1,restart:15:1,join:18:2,rejoin:25:1"
	sched, err := cluster.ParseChurn(schedule)
	if err != nil {
		t.Fatal(err)
	}
	res := churnStreamRun(t, 11, schedule, 0.2)
	if !res.Completed {
		t.Fatalf("churn run incomplete after %d ticks", res.Ticks)
	}
	const k = 6 // churnStreamRun's K
	if want := 12 + sched.Joins(); len(res.Nodes) != want {
		t.Fatalf("%d node slots, want %d (restart/rejoin must reuse slots)", len(res.Nodes), want)
	}
	var out, in, acks, bits, dropped, tokens int64
	live, departed := 0, 0
	for id, m := range res.Nodes {
		if !m.Spawned {
			if m.PacketsOut != 0 || m.PacketsIn != 0 || m.AcksOut != 0 || m.BitsOut != 0 || m.Dropped != 0 || m.Delivered != 0 || m.Live {
				t.Errorf("unspawned id %d has nonzero metrics %+v", id, m)
			}
			continue
		}
		out += m.PacketsOut
		in += m.PacketsIn
		acks += m.AcksOut
		bits += m.BitsOut
		dropped += m.Dropped
		tokens += int64(m.Delivered) * k
		if m.Live {
			live++
		} else if m.PacketsOut > 0 {
			departed++ // leaver/crasher whose traffic stays counted
		}
	}
	if res.PacketsOut != out || res.PacketsIn != in || res.AcksOut != acks || res.BitsOut != bits || res.Dropped != dropped {
		t.Errorf("aggregates (%d,%d,%d,%d,%d) != per-node sums (%d,%d,%d,%d,%d)",
			res.PacketsOut, res.PacketsIn, res.AcksOut, res.BitsOut, res.Dropped, out, in, acks, bits, dropped)
	}
	if res.TokensDelivered != tokens {
		t.Errorf("TokensDelivered = %d, want %d (K-scaled per-node sum)", res.TokensDelivered, tokens)
	}
	if res.FinalLive != live {
		t.Errorf("FinalLive = %d, want %d live flags", res.FinalLive, live)
	}
	if departed == 0 {
		t.Error("schedule has a leave and a crash but no departed node kept its counters")
	}
}

// captureTransport keeps the hellos of the first node to send one — the
// churn phase's burst; the emit phase's announcements, one of which may
// pick the leaver, come later in the tick — and delivers nothing: a kept
// buffer is never recycled under the test.
type captureTransport struct {
	cluster.Transport
	from int // the burst's sender, -1 before the first hello
	got  map[int][]byte
}

func (c *captureTransport) Send(from, to int, pkt []byte) bool {
	if wire.Type(pkt[1]) == wire.TypeHello && (c.from < 0 || c.from == from) {
		c.from = from
		if _, seen := c.got[to]; !seen {
			c.got[to] = pkt
		}
	}
	return true
}

// TestHelloBurstPerRecipientCopy mirrors the cluster runtime's test for
// a stream node's burst, through the constructors a run uses: the
// goodbye of a graceful leave reaches every peer in the leaver's view as
// the canonical bytes of a leave hello with an empty list, in a buffer
// of its own, so an in-place rewrite of one (the hostile mutator) leaves
// the others intact.
func TestHelloBurstPerRecipientCopy(t *testing.T) {
	const n = 5
	tr := &captureTransport{Transport: cluster.NewChanTransport(n, 1), from: -1, got: map[int][]byte{}}
	sched, err := cluster.ParseChurn("leave:1:1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		N: n, K: 2, PayloadBits: 8, Generations: 1, Seed: 1,
		Lockstep: true, MaxTicks: 1, Churn: sched, Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaver := -1
	for id, m := range res.Nodes {
		if !m.Live {
			leaver = id
		}
	}
	if leaver < 0 {
		t.Fatal("nobody left")
	}

	// A goodbye lists nobody: receivers drop the sender at the leave flag.
	want := wire.NewHello(leaver, 0, wire.Hello{Leaving: true}).Marshal()
	if len(tr.got) != n-1 || res.Nodes[leaver].HellosOut != n-1 {
		t.Fatalf("%d recipients, HellosOut %d, want %d", len(tr.got), res.Nodes[leaver].HellosOut, n-1)
	}
	first := (leaver + 1) % n
	tr.got[first][len(want)-1] ^= 0x80
	for to, buf := range tr.got {
		if to == leaver || (to != first && !bytes.Equal(buf, want)) {
			t.Errorf("recipient %d got %x, want its own copy of %x", to, buf, want)
		}
	}
}
