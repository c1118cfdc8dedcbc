package cluster

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/wire"
)

func testTokens(k, d int, seed int64) []token.Token {
	return token.RandomSet(k, d, rand.New(rand.NewSource(seed)))
}

func TestLockstepCodedCompletesUnderLoss(t *testing.T) {
	const n, k, d = 16, 16, 64
	toks := testTokens(k, d, 1)
	tr := WithLoss(NewChanTransport(n, n*2+1), 0.3, 99)
	res, err := Run(context.Background(), Config{N: n, Seed: 5, Lockstep: true, Transport: tr}, toks)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("not completed in %d ticks", res.Ticks)
	}
	if res.Dropped == 0 {
		t.Error("loss middleware dropped nothing at rate 0.3")
	}
	if res.PacketsOut == 0 || res.BitsOut == 0 {
		t.Error("metrics not recorded")
	}
	for id, m := range res.Nodes {
		if !m.Done || m.DoneTick < 1 || m.DoneTick > res.Ticks {
			t.Errorf("node %d: done=%v tick=%d (run ticks %d)", id, m.Done, m.DoneTick, res.Ticks)
		}
	}
}

func TestLockstepForwardCompletes(t *testing.T) {
	const n, k, d = 12, 12, 32
	res, err := Run(context.Background(), Config{N: n, Seed: 3, Mode: Forward, Lockstep: true}, testTokens(k, d, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("forward gossip not completed in %d ticks", res.Ticks)
	}
}

// TestLockstepDeterministic is the reproducibility contract: identical
// seeds give identical runs, tick for tick and counter for counter.
func TestLockstepDeterministic(t *testing.T) {
	run := func(seed int64) *Result {
		const n, k, d = 10, 10, 48
		tr := WithLoss(NewChanTransport(n, n*2+1), 0.25, seed*17+1)
		res, err := Run(context.Background(), Config{N: n, Seed: seed, Lockstep: true, Transport: tr}, testTokens(k, d, 7))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("run did not complete")
		}
		return res
	}
	a, b := run(4), run(4)
	if a.Ticks != b.Ticks || a.PacketsOut != b.PacketsOut || a.PacketsIn != b.PacketsIn ||
		a.BitsOut != b.BitsOut || a.Dropped != b.Dropped {
		t.Fatalf("same seed, different aggregates: %+v vs %+v", a, b)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("same seed, node %d differs: %+v vs %+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
	if c := run(5); c.Ticks == a.Ticks && c.PacketsOut == a.PacketsOut && c.Dropped == a.Dropped {
		t.Log("different seed produced identical aggregates (possible but unlikely)")
	}
}

func TestAsyncCodedSmall(t *testing.T) {
	const n, k, d = 8, 8, 64
	res, err := Run(context.Background(), Config{N: n, Seed: 2, Timeout: 10 * time.Second}, testTokens(k, d, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("async run did not complete")
	}
	// An async tick is one Interval (500µs by default) of wall time.
	last := int(res.Elapsed/(500*time.Microsecond)) + 1
	for id, m := range res.Nodes {
		if !m.Done || m.DoneTick < 0 || m.DoneTick > last {
			t.Errorf("node %d: done=%v at tick %d of a run of %d", id, m.Done, m.DoneTick, last)
		}
	}
}

// TestAsyncUnderHostileTransport drives the full middleware stack —
// loss, delay and reordering — concurrently; it is the -race workout
// for the whole runtime and is skipped under -short to keep tier-1
// fast.
func TestAsyncUnderHostileTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration test skipped with -short")
	}
	const n, k, d = 24, 16, 128
	var tr Transport = NewChanTransport(n, 4*n)
	tr = WithDelay(tr, 0, 4, 10)
	tr = WithReorder(tr, 0.3, 11)
	tr = WithLoss(tr, 0.2, 12)
	res, err := Run(context.Background(), Config{N: n, Seed: 6, Transport: tr, Timeout: 20 * time.Second},
		testTokens(k, d, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete under loss+delay+reorder")
	}
	if res.Dropped == 0 {
		t.Error("no drops recorded at loss 0.2")
	}
}

func TestAsyncForwardCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration test skipped with -short")
	}
	const n, k, d = 12, 12, 32
	res, err := Run(context.Background(), Config{N: n, Seed: 9, Mode: Forward, Timeout: 10 * time.Second},
		testTokens(k, d, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("async forward run did not complete")
	}
}

// TestPartitionBlocksThenHeals splits the cluster in two halves holding
// disjoint token sets: while the cut is up no node can finish; healing
// it lets the run complete.
func TestPartitionBlocksThenHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration test skipped with -short")
	}
	const n, k, d = 8, 8, 64
	cut := func(from, to int) bool { return (from < n/2) != (to < n/2) }

	// Permanent partition: must time out incomplete.
	tr := WithRule(NewChanTransport(n, 4*n), Partition(cut))
	res, err := Run(context.Background(), Config{N: n, Seed: 1, Transport: tr, Timeout: 300 * time.Millisecond},
		testTokens(k, d, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("completed across a permanent partition")
	}

	// Healed partition: an atomic flag drops the cut mid-run.
	var partitioned atomic.Bool
	partitioned.Store(true)
	tr = WithRule(NewChanTransport(n, 4*n), Partition(func(from, to int) bool {
		return partitioned.Load() && cut(from, to)
	}))
	heal := time.AfterFunc(100*time.Millisecond, func() { partitioned.Store(false) })
	defer heal.Stop()
	res, err = Run(context.Background(), Config{N: n, Seed: 1, Transport: tr, Timeout: 15 * time.Second},
		testTokens(k, d, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete after the partition healed")
	}
}

// TestFullMiddlewareStackThenHeal composes all four transport
// middlewares at once — WithLoss ∘ WithDelay ∘ WithReorder ∘
// partition rule — over a cluster split into halves holding disjoint
// tokens. While the cut is up no run can complete; once the blocked
// predicate flips to false, dissemination must finish through the full
// hostile stack.
func TestFullMiddlewareStackThenHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster integration test skipped with -short")
	}
	const n, k, d = 12, 12, 64
	cut := func(from, to int) bool { return (from < n/2) != (to < n/2) }
	var partitioned atomic.Bool

	stack := func() Transport {
		var tr Transport = NewChanTransport(n, 8*n)
		tr = WithRule(tr, Partition(func(from, to int) bool {
			return partitioned.Load() && cut(from, to)
		}))
		tr = WithReorder(tr, 0.3, 31)
		tr = WithDelay(tr, 0, 2, 32)
		tr = WithLoss(tr, 0.15, 33)
		return tr
	}

	// Permanent partition under the full stack: must time out incomplete.
	partitioned.Store(true)
	res, err := Run(context.Background(), Config{N: n, Seed: 2, Transport: stack(), Timeout: 400 * time.Millisecond},
		testTokens(k, d, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("completed across a permanent partition")
	}

	// Heal mid-run: the same stack must then deliver everything.
	partitioned.Store(true)
	heal := time.AfterFunc(100*time.Millisecond, func() { partitioned.Store(false) })
	defer heal.Stop()
	res, err = Run(context.Background(), Config{N: n, Seed: 2, Transport: stack(), Timeout: 20 * time.Second},
		testTokens(k, d, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete after the partition healed under loss+delay+reorder")
	}
	if res.Dropped == 0 {
		t.Error("no drops recorded with loss 0.15 plus a temporary partition")
	}
}

// drainInbox empties id's inbox without blocking and returns the first
// byte of every packet, in arrival order.
func drainInbox(tr Transport, id int) []byte {
	var got []byte
	for {
		select {
		case p := <-tr.Recv(id):
			got = append(got, p[0])
		default:
			return got
		}
	}
}

// TestStackedMiddlewaresDeliver checks the composed stack at the
// transport level, without the runtime, ticking it the way a driver
// does: a blocked partition stops every packet no matter what
// loss/delay/reorder do above it, and once blocked is false every
// packet the stack accepts arrives intact at its addressee, exactly
// once (delay and reorder never lose or duplicate accepted packets).
func TestStackedMiddlewaresDeliver(t *testing.T) {
	const sends, maxDelay = 400, 4
	stack := func(blocked *atomic.Bool) Transport {
		var tr Transport = NewChanTransport(2, sends+1)
		tr = WithRule(tr, Partition(func(from, to int) bool { return blocked.Load() }))
		tr = WithReorder(tr, 0.4, 41)
		tr = WithDelay(tr, 0, maxDelay, 42)
		tr = WithLoss(tr, 0.25, 43)
		return tr
	}
	// drive sends count packets, eight a tick, then ticks the delay queue
	// dry.
	drive := func(tr Transport, count int) (accepted int) {
		tick := int64(0)
		for i := 0; i < count; i++ {
			if i%8 == 0 {
				tick++
				ObserveTick(tr, tick)
			}
			if tr.Send(0, 1, []byte{byte(i)}) {
				accepted++
			}
		}
		for i := 0; i < maxDelay; i++ {
			tick++
			ObserveTick(tr, tick)
		}
		return accepted
	}

	// Blocked cut: nothing may reach the inbox once everything held has
	// been released.
	var blocked atomic.Bool
	blocked.Store(true)
	cutTr := stack(&blocked)
	drive(cutTr, 50)
	if got := drainInbox(cutTr, 1); len(got) > 0 {
		t.Fatalf("packet %d delivered across a blocked partition", got[0])
	}

	// Healed cut: the stack delivers what it accepts, without duplicates.
	var healed atomic.Bool
	tr := stack(&healed)
	accepted := drive(tr, sends)
	got := drainInbox(tr, 1)
	if len(got) < accepted-1 || len(got) > accepted { // reorder may park one packet forever
		t.Fatalf("%d of %d accepted packets arrived", len(got), accepted)
	}
	frac := float64(accepted) / sends
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("accepted fraction %.2f at loss 0.25, want ~0.75", frac)
	}
	counts := make(map[byte]int)
	for _, b := range got {
		counts[b]++
	}
	for b, c := range counts {
		// Packet payloads repeat every 256 sends; with 400 sends a byte
		// value may legitimately arrive twice, never three times.
		if c > 2 {
			t.Fatalf("packet %d delivered %d times through the stack", b, c)
		}
	}
}

func TestChanTransportDropsOnFullInbox(t *testing.T) {
	tr := NewChanTransport(2, 1)
	if !tr.Send(0, 1, []byte{1}) {
		t.Fatal("first send dropped")
	}
	if tr.Send(0, 1, []byte{2}) {
		t.Error("send into a full inbox accepted")
	}
	if tr.Send(0, 5, []byte{3}) {
		t.Error("send to an out-of-range node accepted")
	}
	tr.Close()
	tr.Close() // idempotent
	if tr.Send(0, 1, []byte{4}) {
		t.Error("send after Close accepted")
	}
}

// TestChanTransportRecvOutOfRange pins the bounds contract on the
// receive side: an id outside [0, n) must yield a nil (forever-
// blocking) channel, not an index panic, mirroring Send's drop
// behavior. Regression test for the one transport method that indexed
// without a bounds check.
func TestChanTransportRecvOutOfRange(t *testing.T) {
	tr := NewChanTransport(2, 1)
	defer tr.Close()
	for _, id := range []int{-1, 2, 100} {
		if ch := tr.Recv(id); ch != nil {
			t.Errorf("Recv(%d) returned a live channel for an out-of-range id", id)
		}
	}
	if ch := tr.Recv(1); ch == nil {
		t.Error("Recv(1) returned nil for an in-range id")
	}
	// The nil channel must compose with select-based receive loops: a
	// receive from it blocks rather than panicking or yielding.
	select {
	case <-tr.Recv(7):
		t.Error("receive on out-of-range inbox yielded a value")
	default:
	}
}

func TestWithLossRate(t *testing.T) {
	const sends = 10000
	tr := WithLoss(NewChanTransport(2, sends), 0.3, 1)
	delivered := 0
	for i := 0; i < sends; i++ {
		if tr.Send(0, 1, []byte{0}) {
			delivered++
		}
	}
	frac := float64(delivered) / sends
	if frac < 0.65 || frac > 0.75 {
		t.Errorf("delivered fraction %.3f at loss 0.3, want ~0.7", frac)
	}
	if same := WithLoss(tr, 0, 1); same != tr {
		t.Error("zero loss rate should be the identity decorator")
	}
}

func TestWithReorderDeliversAllOutOfOrder(t *testing.T) {
	const msgs = 200
	inner := NewChanTransport(2, msgs+1)
	tr := WithReorder(inner, 0.5, 2)
	for i := 0; i < msgs; i++ {
		tr.Send(0, 1, []byte{byte(i)})
	}
	var got []byte
drain:
	for {
		select {
		case p := <-tr.Recv(1):
			got = append(got, p[0])
		default:
			break drain
		}
	}
	// At most one packet may still be parked in the hold-back slot.
	if len(got) < msgs-1 {
		t.Fatalf("only %d of %d packets delivered", len(got), msgs)
	}
	seen := make(map[byte]bool)
	inOrder := true
	for i, b := range got {
		if seen[b] {
			t.Fatalf("packet %d duplicated", b)
		}
		seen[b] = true
		if i > 0 && got[i-1] > b {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("no reordering observed at rate 0.5")
	}
}

// keepOpen swallows Close, so a test can see what a layer above it
// does with the packets it holds when the stack is closed.
type keepOpen struct{ Transport }

func (keepOpen) Close() {}

// TestWithDelayDeliversLater hand-drives the delay layer's contract: a
// packet sent during tick s with latency d reaches the inner transport
// at ObserveTick(s+d), not a tick earlier; packets released together go
// in Send order; latency 0 passes straight through; every latency of
// [min, max] is drawn; Close drops what is held.
func TestWithDelayDeliversLater(t *testing.T) {
	inner := NewChanTransport(2, 64)
	tr := WithDelay(keepOpen{inner}, 3, 3, 3)
	ObserveTick(tr, 5)
	tr.Send(0, 1, []byte{1})
	tr.Send(0, 1, []byte{2})
	ObserveTick(tr, 6)
	tr.Send(0, 1, []byte{3})
	for _, step := range []struct {
		tick int64
		want string
	}{{7, ""}, {8, "\x01\x02"}, {9, "\x03"}, {10, ""}} {
		ObserveTick(tr, step.tick)
		if got := string(drainInbox(inner, 1)); got != step.want {
			t.Errorf("tick %d released %q, want %q", step.tick, got, step.want)
		}
	}
	tr.Send(0, 1, []byte{4})
	tr.Close()
	ObserveTick(tr, 20)
	if got := drainInbox(inner, 1); len(got) > 0 {
		t.Errorf("packet %d released after Close", got[0])
	}

	ranged := WithDelay(inner, 0, 2, 4)
	seen := map[int64]int{}
	for i := 0; i < 60; i++ {
		sent := int64(100 + 10*i)
		ObserveTick(ranged, sent)
		ranged.Send(0, 1, []byte{byte(i)})
		for d := int64(0); d <= 3; d++ {
			if d > 0 {
				ObserveTick(ranged, sent+d)
			}
			if got := drainInbox(inner, 1); len(got) > 0 {
				seen[d]++
			}
		}
	}
	if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 || seen[3] != 0 || seen[0]+seen[1]+seen[2] != 60 {
		t.Errorf("latencies drawn from [0, 2] ticks: %v of 60 sends", seen)
	}
	if same := WithDelay(inner, 0, 0, 1); same != Transport(inner) {
		t.Error("zero delay should be the identity decorator")
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	toks := testTokens(4, 8, 1)
	if _, err := Run(ctx, Config{N: 0, Lockstep: true}, toks); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Run(ctx, Config{N: 4, Lockstep: true}, nil); err == nil {
		t.Error("no tokens accepted")
	}
	mixed := append(testTokens(2, 8, 1), testTokens(1, 16, 2)...)
	if _, err := Run(ctx, Config{N: 4, Lockstep: true}, mixed); err == nil {
		t.Error("mixed payload sizes accepted")
	}
	if _, err := Run(ctx, Config{N: 4, Mode: Mode(9), Lockstep: true}, toks); err == nil {
		t.Error("unknown mode accepted")
	}
	// Coefficients, uid and payload one bit past the codec's cap: no
	// decoder would take a packet, so the run is refused, not ground
	// through its tick cap.
	wide := testTokens(2, wire.MaxVecBits-token.UIDBits-1, 1)
	if _, err := Run(ctx, Config{N: 4, Lockstep: true, MaxTicks: 2}, wide); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("coded packets past the codec's cap: err %v", err)
	}
}

// TestSingleNodeCompletesImmediately covers the degenerate cluster.
func TestSingleNodeCompletesImmediately(t *testing.T) {
	for _, mode := range []Mode{Coded, Forward} {
		res, err := Run(context.Background(), Config{N: 1, Mode: mode, Lockstep: true}, testTokens(3, 8, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Ticks != 0 {
			t.Errorf("mode %v: completed=%v ticks=%d", mode, res.Completed, res.Ticks)
		}
	}
}

// TestLockstepCapReportsIncomplete pins the MaxTicks behaviour: hitting
// the cap yields Completed == false, not an error.
func TestLockstepCapReportsIncomplete(t *testing.T) {
	const n = 8
	tr := WithLoss(NewChanTransport(n, 4*n), 0.999, 1)
	res, err := Run(context.Background(), Config{N: n, Seed: 1, Lockstep: true, Transport: tr, MaxTicks: 20},
		testTokens(n, 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("completed at 99.9% loss in 20 ticks")
	}
	if res.Ticks != 20 {
		t.Errorf("ticks = %d, want the 20-tick cap", res.Ticks)
	}
}

// TestLockstepObservesContext pins the cancellation contract the
// deterministic driver shares with the async one: a canceled context
// cuts the run short instead of grinding to the tick cap.
func TestLockstepObservesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 8
	tr := WithLoss(NewChanTransport(n, 4*n), 0.999, 1)
	res, err := Run(ctx, Config{N: n, Seed: 1, Lockstep: true, Transport: tr, MaxTicks: 1 << 20},
		testTokens(n, 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("completed under a pre-canceled context at 99.9% loss")
	}
	if res.Ticks != 0 {
		t.Errorf("ticks = %d, want 0 for a pre-canceled context", res.Ticks)
	}
}

// TestLockstepGoldenTranscripts pins exact lockstep run fingerprints
// for both modes under loss: any divergence in coin draws, emission
// order or buffer corruption — in CombineInto/AppendTo/UnmarshalInto or
// the per-node buffer rings they feed — shifts these counters. Only a
// change to keyed.Rand's keys or generator re-pins them, inputs unchanged.
func TestLockstepGoldenTranscripts(t *testing.T) {
	ctx := context.Background()
	type golden struct {
		seed                    int64
		ticks                   int
		out, in, bits, drop     int64
		fticks                  int
		fout, fin, fbits, fdrop int64
	}
	goldens := []golden{
		{1, 18, 340, 256, 36720, 84, 74, 1460, 1098, 140160, 362},
		{2, 19, 360, 264, 38880, 96, 39, 760, 569, 72960, 191},
		{3, 14, 260, 201, 28080, 59, 44, 860, 653, 82560, 207},
		{4, 12, 220, 179, 23760, 41, 45, 880, 665, 84480, 215},
		{5, 14, 260, 197, 28080, 63, 37, 720, 556, 69120, 164},
	}
	for _, g := range goldens {
		toks := token.RandomSet(12, 32, rand.New(rand.NewSource(g.seed)))
		for _, mode := range []Mode{Coded, Forward} {
			// Each transcript is pinned with telemetry both off and on:
			// tracing only observes, so it must not shift a single coin
			// draw or counter.
			for _, traced := range []bool{false, true} {
				var rec *telemetry.Recorder
				if traced {
					rec = telemetry.New(telemetry.Config{Nodes: 10})
				}
				cfg := Config{N: 10, Fanout: 2, Mode: mode, Seed: g.seed, Lockstep: true, Telemetry: rec}
				cfg.Transport = WithLoss(cfg.DefaultTransport(0), 0.25, g.seed+77)
				res, err := Run(ctx, cfg, toks)
				if err != nil {
					t.Fatalf("seed %d %v traced=%v: %v", g.seed, mode, traced, err)
				}
				if !res.Completed {
					t.Fatalf("seed %d %v traced=%v: incomplete", g.seed, mode, traced)
				}
				want := [5]int64{int64(g.ticks), g.out, g.in, g.bits, g.drop}
				if mode == Forward {
					want = [5]int64{int64(g.fticks), g.fout, g.fin, g.fbits, g.fdrop}
				}
				got := [5]int64{int64(res.Ticks), res.PacketsOut, res.PacketsIn, res.BitsOut, res.Dropped}
				if got != want {
					t.Errorf("seed %d %v traced=%v: transcript diverged: got %v, want %v", g.seed, mode, traced, got, want)
				}
				if traced {
					// The trace must reconcile with the pinned counters: every
					// send and every undelivered send was recorded.
					c := rec.Counters()
					if c["events_send"] != res.PacketsOut {
						t.Errorf("seed %d %v: traced %d sends, metrics say %d", g.seed, mode, c["events_send"], res.PacketsOut)
					}
					if c["events_drop"] != res.Dropped {
						t.Errorf("seed %d %v: traced %d drops, metrics say %d", g.seed, mode, c["events_drop"], res.Dropped)
					}
					if c["samples"] == 0 {
						t.Errorf("seed %d %v: traced run recorded no samples", g.seed, mode)
					}
				}
			}
		}
	}
}

// TestKeyedStreamUsefulness is the differential run against math/rand:
// the share of received packets that were innovative, pooled over 64
// coded lockstep runs of 256 nodes (k = 32, seeds 1…64). The parent of
// the keyed generator, on math/rand's lagged-Fibonacci sources, read
// 522240/894198 = 0.5840 on the same 64 runs, with a standard error of
// 0.0046 (per-seed standard deviation 0.036: the ratio is needed rank
// over packets sent before the last node finishes, so it moves with
// each run's last tick). Five seeds, 0.5739 there and 0.5538 here, sit
// inside their own 0.015 and say nothing; 128 seeds read 0.5836 and
// 0.5876. The fence is two standard errors of a difference below the
// recorded value: a generator whose picks or coins correlate across
// nodes loses more than that.
func TestKeyedStreamUsefulness(t *testing.T) {
	const mathRand, seDiff = 0.5840, 0.0065
	var innovative, received int64
	for seed := int64(1); seed <= 64; seed++ {
		res, err := Run(context.Background(), Config{N: 256, Seed: seed, Lockstep: true}, testTokens(32, 64, seed))
		if err != nil || !res.Completed {
			t.Fatalf("seed %d: completed=%v err=%v", seed, res != nil && res.Completed, err)
		}
		for _, m := range res.Nodes {
			innovative += m.Innovative
		}
		received += res.PacketsIn
	}
	got := float64(innovative) / float64(received)
	t.Logf("innovative/received = %d/%d = %.4f (math/rand: %.4f)", innovative, received, got, mathRand)
	if got < mathRand-2*seDiff {
		t.Errorf("innovative/received = %.4f, more than two standard errors below math/rand's %.4f", got, mathRand)
	}
}

// TestCodedVerifyInPlace: a coded node's one-shot verification reads its
// unit rows in place, allocating nothing, and still names the token a
// wrong row decodes to, or the rank a short span has.
func TestCodedVerifyInPlace(t *testing.T) {
	const k, d = 32, 64
	toks := testTokens(k, d, 5)
	vecs := tokenVecs(toks)
	c := &codedNode{nd: &Node{ID: 3}, span: rlnc.NewSpan(k, token.UIDBits+d)}
	for j, v := range vecs[:k-1] {
		c.span.Add(rlnc.Encode(j, k, v))
	}
	if err := c.verify(toks, vecs); err == nil || !strings.Contains(err.Error(), "node 3: rlnc: rank 31 of 32") {
		t.Fatalf("a rank-31 span verified: %v", err)
	}
	c.span.Add(rlnc.Encode(k-1, k, vecs[k-1]))
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.verify(toks, vecs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("one-shot verification allocated %.1f times, want 0", allocs)
	}
	wrong := append([]gf.BitVec(nil), vecs...)
	wrong[7] = vecs[8]
	if err := c.verify(toks, wrong); err == nil || !strings.Contains(err.Error(), "token 7 decoded to "+toks[7].UID.String()) {
		t.Fatalf("a wrong token verified: %v", err)
	}
}
