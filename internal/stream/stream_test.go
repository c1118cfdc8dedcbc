package stream

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/wire"
)

func TestSeededSourceDeterministic(t *testing.T) {
	src := NewSeededSource(4, 32, 7)
	a, b := src.Generation(3), src.Generation(3)
	for j := range a {
		if !a[j].Equal(b[j]) {
			t.Fatalf("generation 3 token %d differs between calls", j)
		}
		if a[j].UID != token.NewUID(j, 3) {
			t.Errorf("token %d has UID %v, want %v", j, a[j].UID, token.NewUID(j, 3))
		}
	}
	c := src.Generation(4)
	same := true
	for j := range a {
		same = same && a[j].Payload.Equal(c[j].Payload)
	}
	if same {
		t.Error("generations 3 and 4 have identical payloads")
	}
}

func TestLockstepStreamCompletesUnderLoss(t *testing.T) {
	const n, k, d, gens, w = 12, 6, 64, 6, 4
	cfg := Config{
		N: n, K: k, PayloadBits: d, Window: w, Generations: gens,
		Seed: 5, Lockstep: true, MaxTicks: 100000,
	}
	cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.3, 99)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("not completed in %d ticks", res.Ticks)
	}
	if res.Dropped == 0 {
		t.Error("loss middleware dropped nothing at rate 0.3")
	}
	if res.PacketsOut == 0 || res.AcksOut == 0 || res.BitsOut == 0 {
		t.Error("metrics not recorded")
	}
	if want := int64(n * k * gens); res.TokensDelivered != want {
		t.Errorf("TokensDelivered = %d, want %d", res.TokensDelivered, want)
	}
	for id, m := range res.Nodes {
		if !m.Done || m.Delivered != gens {
			t.Errorf("node %d: done=%v delivered=%d of %d", id, m.Done, m.Delivered, gens)
		}
		if m.DoneTick < 1 || m.DoneTick > res.Ticks {
			t.Errorf("node %d: DoneTick %d outside (0,%d]", id, m.DoneTick, res.Ticks)
		}
		if m.MaxSpanBytes <= 0 || m.MaxActiveGens < 1 {
			t.Errorf("node %d: memory metrics not recorded (%dB, %d gens)", id, m.MaxSpanBytes, m.MaxActiveGens)
		}
	}
}

func TestSequentialWindowCompletes(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N: 8, K: 4, PayloadBits: 32, Window: 1, Generations: 5, Seed: 3, Lockstep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("sequential stream not completed in %d ticks", res.Ticks)
	}
	// Window 1 means one sourced generation at a time; receive-side skew
	// can keep a straggler's span briefly alive alongside the next
	// generation, but the count must stay O(1), not O(generations).
	for id, m := range res.Nodes {
		if m.MaxActiveGens > 3 {
			t.Errorf("node %d held %d concurrent generations at window 1", id, m.MaxActiveGens)
		}
	}
}

// runSeeded is the canonical deterministic run the purity property
// checks: every bit of randomness (node coins, transport losses)
// derives from the one seed.
func runSeeded(t *testing.T, seed int64, w int) *Result {
	t.Helper()
	const n, k, d, gens = 10, 5, 48, 5
	cfg := Config{
		N: n, K: k, PayloadBits: d, Window: w, Generations: gens,
		Seed: seed, Lockstep: true, MaxTicks: 100000,
	}
	cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.25, seed*17+1)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("seed %d did not complete", seed)
	}
	res.Elapsed = 0 // wall clock is the one legitimately impure field
	return res
}

// TestLockstepPureFunctionOfSeed is the reproducibility contract of the
// acceptance criteria: a lockstep stream run is a pure function of the
// seed, tick for tick, counter for counter, across every node.
func TestLockstepPureFunctionOfSeed(t *testing.T) {
	pure := func(s uint16, wbits uint8) bool {
		seed := int64(s) + 1
		w := 1 + int(wbits)%4
		a, b := runSeeded(t, seed, w), runSeeded(t, seed, w)
		return reflect.DeepEqual(a, b)
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(pure, cfg); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(runSeeded(t, 11, 2), runSeeded(t, 12, 2)) {
		t.Log("different seeds produced identical runs (possible but unlikely)")
	}
}

// TestPipeliningBeatsSequentialUnderLoss is the E12 claim at unit size:
// a window of concurrent generations sustains strictly higher token
// throughput than one-generation-at-a-time dissemination when packets
// are being lost.
func TestPipeliningBeatsSequentialUnderLoss(t *testing.T) {
	const n, k, d, gens = 16, 8, 64, 8
	ticks := func(w int) int {
		cfg := Config{
			N: n, K: k, PayloadBits: d, Window: w, Generations: gens,
			Seed: 9, Lockstep: true, MaxTicks: 100000,
		}
		cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.3, 77)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("W=%d did not complete", w)
		}
		return res.Ticks
	}
	seq, pipe := ticks(1), ticks(4)
	if pipe >= seq {
		t.Errorf("W=4 took %d ticks, sequential W=1 took %d: no pipelining gain", pipe, seq)
	}
}

// TestWindowBoundsMemory pins the GC contract: peak span memory is set
// by the window, not by the stream length, and doubling the stream does
// not grow it.
func TestWindowBoundsMemory(t *testing.T) {
	peak := func(gens int) int {
		res, err := Run(context.Background(), Config{
			N: 8, K: 4, PayloadBits: 32, Window: 2, Generations: gens, Seed: 4, Lockstep: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("gens=%d did not complete", gens)
		}
		for id, m := range res.Nodes {
			if m.MaxActiveGens > 2+3 {
				t.Errorf("gens=%d node %d: %d concurrent generations for window 2", gens, id, m.MaxActiveGens)
			}
		}
		return res.MaxSpanBytes
	}
	short, long := peak(4), peak(16)
	if long > 2*short {
		t.Errorf("peak span memory grew from %dB to %dB when the stream got longer", short, long)
	}
}

func TestDeliveryInOrderAndComplete(t *testing.T) {
	const n, k, d, gens = 6, 3, 16, 7
	var mu sync.Mutex
	got := make([][]int, n)
	res, err := Run(context.Background(), Config{
		N: n, K: k, PayloadBits: d, Window: 3, Generations: gens, Seed: 8, Lockstep: true,
		Deliver: func(node, gen int, toks []token.Token) {
			mu.Lock()
			defer mu.Unlock()
			got[node] = append(got[node], gen)
			if len(toks) != k {
				t.Errorf("node %d generation %d delivered %d tokens, want %d", node, gen, len(toks), k)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	for id, gensGot := range got {
		if len(gensGot) != gens {
			t.Fatalf("node %d delivered %d generations, want %d", id, len(gensGot), gens)
		}
		for g, v := range gensGot {
			if v != g {
				t.Fatalf("node %d delivery %d was generation %d: out of order", id, g, v)
			}
		}
	}
}

func TestAsyncStreamSmall(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N: 8, K: 4, PayloadBits: 64, Window: 4, Generations: 5, Seed: 2, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("async stream did not complete")
	}
	// An async tick is one Interval (500µs by default) of wall time.
	last := int(res.Elapsed/(500*time.Microsecond)) + 1
	for id, m := range res.Nodes {
		if !m.Done || m.DoneTick < 0 || m.DoneTick > last || m.Delivered != 5 {
			t.Errorf("node %d: done=%v at tick %d of a run of %d, delivered %d", id, m.Done, m.DoneTick, last, m.Delivered)
		}
	}
}

// TestAsyncStreamUnderHostileTransport drives the full middleware stack
// concurrently over the streaming runtime; it is the -race workout for
// the window/ack machinery and is skipped under -short.
func TestAsyncStreamUnderHostileTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("stream integration test skipped with -short")
	}
	const n = 16
	var tr cluster.Transport = cluster.NewChanTransport(n, 8*n)
	tr = cluster.WithDelay(tr, 0, 4, 20)
	tr = cluster.WithReorder(tr, 0.3, 21)
	tr = cluster.WithLoss(tr, 0.2, 22)
	res, err := Run(context.Background(), Config{
		N: n, K: 8, PayloadBits: 128, Window: 4, Generations: 6,
		Seed: 6, Transport: tr, Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("stream did not complete under loss+delay+reorder")
	}
	if res.Dropped == 0 {
		t.Error("no drops recorded at loss 0.2")
	}
}

func TestStreamValidation(t *testing.T) {
	ctx := context.Background()
	bad := []Config{
		{N: 0, K: 1, PayloadBits: 1, Generations: 1},
		{N: 2, K: 0, PayloadBits: 1, Generations: 1},
		{N: 2, K: 1, PayloadBits: 0, Generations: 1},
		{N: 2, K: 1, PayloadBits: 1, Generations: 0},
		{N: 2, K: 1, PayloadBits: 1, Generations: 1, Window: -1},
		{N: 2, K: 1, PayloadBits: 1, Generations: 1, Fanout: -1},
		// Rejected, not a panic while Run sizes its table.
		{N: 2, K: 1, PayloadBits: 1, Generations: 1, Churn: &cluster.ChurnSchedule{
			Events: []cluster.ChurnEvent{{Kind: cluster.ChurnJoin, At: 5, Count: -9}}}},
		{N: 2, K: 1, PayloadBits: 1, Generations: 1, Churn: &cluster.ChurnSchedule{
			Events: []cluster.ChurnEvent{{Kind: cluster.ChurnJoin, At: 5, Count: math.MaxInt}}}},
		// No decoder takes a vector past the codec's cap.
		{N: 2, K: 1, PayloadBits: wire.MaxVecBits - token.UIDBits, Generations: 1, MaxTicks: 2},
	}
	for i, cfg := range bad {
		cfg.Lockstep = true
		if _, err := Run(ctx, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSingleNodeStreams(t *testing.T) {
	res, err := Run(context.Background(), Config{
		N: 1, K: 3, PayloadBits: 8, Window: 2, Generations: 4, Seed: 1, Lockstep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("single node did not complete (ticks %d)", res.Ticks)
	}
	if res.Nodes[0].Delivered != 4 {
		t.Errorf("delivered %d generations, want 4", res.Nodes[0].Delivered)
	}
}

func TestStreamCapReportsIncomplete(t *testing.T) {
	const n = 8
	cfg := Config{
		N: n, K: 4, PayloadBits: 32, Window: 2, Generations: 4,
		Seed: 1, Lockstep: true, MaxTicks: 20,
	}
	cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.999, 1)
	res, err := Run(context.Background(), cfg)
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

func TestStreamObservesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 8
	cfg := Config{
		N: n, K: 4, PayloadBits: 32, Window: 2, Generations: 4,
		Seed: 1, Lockstep: true, MaxTicks: 1 << 20,
	}
	cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.999, 1)
	res, err := Run(ctx, cfg)
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

// TestStreamLockstepGoldenTranscripts pins exact lockstep streaming run
// fingerprints under loss. Like the cluster goldens they hold the
// pooled zero-allocation path — ring-recycled buffers, scratch packets,
// the memoized source — to its coin draws and emission order. A codec
// change may move the bits column alone; only a change to
// keyed.Rand's keys or generator re-pins the rest, inputs
// unchanged.
func TestStreamLockstepGoldenTranscripts(t *testing.T) {
	ctx := context.Background()
	goldens := []struct {
		seed                      int64
		ticks                     int
		out, in, acks, bits, drop int64
		delivered                 int64
	}{
		{1, 55, 864, 697, 432, 138904, 249, 288},
		{2, 65, 1024, 808, 512, 165272, 328, 288},
		{3, 52, 816, 656, 408, 132920, 243, 288},
		{4, 55, 864, 678, 432, 139744, 261, 288},
		{5, 55, 864, 678, 432, 139352, 269, 288},
	}
	for _, g := range goldens {
		// Each transcript is pinned with telemetry both off and on:
		// tracing only observes, so it must not shift a single coin draw
		// or counter.
		for _, traced := range []bool{false, true} {
			var rec *telemetry.Recorder
			if traced {
				rec = telemetry.New(telemetry.Config{Nodes: 8})
			}
			cfg := Config{
				N: 8, K: 6, PayloadBits: 48, Window: 3, Generations: 6,
				Seed: g.seed, Lockstep: true, MaxTicks: 200000,
				Telemetry: rec,
			}
			cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.2, g.seed+3)
			res, err := Run(ctx, cfg)
			if err != nil {
				t.Fatalf("seed %d traced=%v: %v", g.seed, traced, err)
			}
			if !res.Completed {
				t.Fatalf("seed %d traced=%v: incomplete", g.seed, traced)
			}
			got := [7]int64{int64(res.Ticks), res.PacketsOut, res.PacketsIn, res.AcksOut, res.BitsOut, res.Dropped, res.TokensDelivered}
			want := [7]int64{int64(g.ticks), g.out, g.in, g.acks, g.bits, g.drop, g.delivered}
			if got != want {
				t.Errorf("seed %d traced=%v: transcript diverged: got %v, want %v", g.seed, traced, got, want)
			}
			if traced {
				// The trace must reconcile with the pinned counters.
				c := rec.Counters()
				if c["events_send"] != res.PacketsOut {
					t.Errorf("seed %d: traced %d sends, metrics say %d", g.seed, c["events_send"], res.PacketsOut)
				}
				if c["events_send_ack"] != res.AcksOut {
					t.Errorf("seed %d: traced %d acks, metrics say %d", g.seed, c["events_send_ack"], res.AcksOut)
				}
				if c["events_drop"] != res.Dropped {
					t.Errorf("seed %d: traced %d drops, metrics say %d", g.seed, c["events_drop"], res.Dropped)
				}
				// Every generation delivered on every node leaves a deliver
				// event (8 nodes × 6 generations).
				if c["events_deliver"] != 48 {
					t.Errorf("seed %d: traced %d delivers, want 48", g.seed, c["events_deliver"])
				}
				if c["samples"] == 0 {
					t.Errorf("seed %d: traced run recorded no samples", g.seed)
				}
			}
		}
	}
}

// TestSeededSourceCacheBounded walks generation requests in adversarial
// orders — including strictly backward below everything cached, the
// pattern that defeated evict-the-minimum — and requires the memo cache
// to stay within its cap while still returning correct tokens.
func TestSeededSourceCacheBounded(t *testing.T) {
	src := NewSeededSource(4, 16, 99).(*seededSource)
	fresh := NewSeededSource(4, 16, 99)
	check := func(g int) {
		got := src.Generation(g)
		wantToks := fresh.(*seededSource).buildUncached(g)
		for j := range wantToks {
			if !got[j].Equal(wantToks[j]) {
				t.Fatalf("generation %d token %d diverged under eviction", g, j)
			}
		}
		if len(src.cache) > sourceCacheCap {
			t.Fatalf("cache grew to %d entries (cap %d) at generation %d", len(src.cache), sourceCacheCap, g)
		}
	}
	for g := 0; g < 3*sourceCacheCap; g++ { // forward
		check(g)
	}
	for g := 3 * sourceCacheCap; g >= 0; g-- { // strictly backward
		check(g)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ { // random jumps
		check(rng.Intn(10 * sourceCacheCap))
	}
}

// TestLiveRankIsDeliveryWatermark pins the recorder scoreboard's stream
// semantics: what LiveRank reports for a stream node is its delivery
// watermark — the value the node publishes, the one targeted churn
// reads too — so at the end of a run every node reads Generations. K
// differs from Generations here because the scoreboard used to be
// overwritten each tick by the span rank of the generation at the
// watermark, which for a finished node is K.
func TestLiveRankIsDeliveryWatermark(t *testing.T) {
	const n, k, gens = 8, 3, 7
	rec := telemetry.New(telemetry.Config{Nodes: n})
	cfg := Config{
		N: n, K: k, PayloadBits: 32, Window: 2, Generations: gens,
		Seed: 3, Lockstep: true, MaxTicks: 100000, Telemetry: rec,
	}
	cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.2, 11)
	res, err := Run(context.Background(), cfg)
	if err != nil || !res.Completed {
		t.Fatalf("completed=%v err=%v", res.Completed, err)
	}
	for id := 0; id < n; id++ {
		if rank, ok := rec.LiveRank(id); !ok || rank != gens {
			t.Errorf("node %d: LiveRank = %d, %v; want the watermark %d", id, rank, ok, gens)
		}
	}
}
