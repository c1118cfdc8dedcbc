package hostile_test

// Survivability and determinism of the full fault-injection stack,
// driven through the real runtimes: the hostile layers exist to
// pressure-test the protocols, so these tests assert the protocols'
// invariants (ordered no-dup delivery, decode-verified completion)
// survive the worst the layers can legally do, and that lockstep runs
// under the full stack stay a pure function of the seed.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/hostile"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// deliveryTracker asserts the stream consumer contract under fire:
// every node's generations arrive in strictly increasing order — no
// duplicate, no regression. Gaps are legal: a crashed node that
// restarts re-enters at the frontier it learns from watermark gossip,
// skipping generations that retired while it was down.
type deliveryTracker struct {
	mu   sync.Mutex
	next map[int]int
	errs []string
}

func newDeliveryTracker() *deliveryTracker {
	return &deliveryTracker{next: make(map[int]int)}
}

func (d *deliveryTracker) deliver(node, gen int, _ []token.Token) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if want, seen := d.next[node]; seen && gen < want {
		d.errs = append(d.errs, fmt.Sprintf("node %d delivered generation %d after %d (dup or out of order)", node, gen, want-1))
		return
	}
	d.next[node] = gen + 1
}

func (d *deliveryTracker) check(t *testing.T) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.errs {
		t.Error(e)
	}
}

// streamSurvivalMutations is the satellite-3 hostile mix: stale-epoch
// replays plus duplicates and cross-generation reordering, the three
// ops that attack the retirement frontier and in-order delivery.
var streamSurvivalMutations = hostile.MutationSpec{Dup: 0.05, Stale: 0.1, Xgen: 0.05}

// TestStreamSurvivesCrashFrontierAndStaleReplay is the stream
// survivability gate: under a crashfrontier churn schedule (the churner
// beheads the node blocking the retirement frontier) and a mutator
// replaying retired-generation packets, every live node must still
// retire generations and deliver the whole stream strictly in order —
// no frontier deadlock, no duplicate delivery.
func TestStreamSurvivesCrashFrontierAndStaleReplay(t *testing.T) {
	for _, mode := range []string{"lockstep", "async"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			const n, k, gens = 8, 4, 6
			lockstep := mode == "lockstep"
			sched, err := cluster.ParseChurn("crashfrontier:25:1,restart:60:1")
			if err != nil {
				t.Fatal(err)
			}
			tracker := newDeliveryTracker()
			// Four times the no-overflow inbox (n senders × 2 data, an ack
			// and a hello, plus one): duplicated packets must not overflow.
			var tr cluster.Transport = cluster.NewChanTransport(n, 4*(4*n+1))
			tr = cluster.WithLoss(tr, 0.1, 103)
			tr = hostile.WithMutator(tr, streamSurvivalMutations, 105, nil)
			cfg := stream.Config{
				N: n, K: k, PayloadBits: 32, Window: 3, Generations: gens, Fanout: 2,
				Seed: 5, Transport: tr, Lockstep: lockstep, MaxTicks: 200000,
				Interval: 200 * time.Microsecond, Timeout: 30 * time.Second,
				Churn: sched, Deliver: tracker.deliver,
			}
			res, err := stream.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("stream incomplete under crashfrontier + stale replay (%s)", mode)
			}
			tracker.check(t)
			var stale int64
			for _, m := range res.Nodes {
				stale += m.Stale
			}
			if stale == 0 {
				t.Error("no packet accounted Stale: the replay injection exercised nothing")
			}
		})
	}
}

// TestClusterSurvivesRotatingPathAdversary is the cluster
// survivability gate: dissemination over a topology the rotating-path
// adversary re-wires every tick must still complete, with cluster.Run's
// built-in decode verification passing on every live node.
func TestClusterSurvivesRotatingPathAdversary(t *testing.T) {
	const n, k = 10, 8
	toks := token.RandomSet(k, 32, rand.New(rand.NewSource(9)))
	cfg := cluster.Config{N: n, Fanout: 2, Mode: cluster.Coded, Seed: 9, Lockstep: true, MaxTicks: 200000}
	cfg.Transport = hostile.WithAdversary(cfg.DefaultTransport(0), adversary.NewRotatingPath(n, 9), nil)
	res, err := cluster.Run(context.Background(), cfg, toks)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("cluster incomplete under rotating-path adversary after %d ticks", res.Ticks)
	}
}

// TestAdversaryUnderPlainMiddlewareSeesEveryTick: the lockstep clock
// reaches a tick-aware layer wherever it sits. Stacked beneath loss,
// reorder and partition — none of which has a clock of its own — the
// adversary is still asked for every tick's topology, once, when the
// tick is observed, where it used to serve tick 0's for the whole run.
func TestAdversaryUnderPlainMiddlewareSeesEveryTick(t *testing.T) {
	const n = 6
	adv := newPathAdversary(n)
	cfg := cluster.Config{N: n, Fanout: 2, Seed: 3, Lockstep: true, MaxTicks: 100000}
	tr := hostile.WithAdversary(cfg.DefaultTransport(0), adv, nil)
	tr = cluster.WithPartition(tr, func(from, to int) bool { return false })
	tr = cluster.WithReorder(tr, 0.1, 5)
	cfg.Transport = cluster.WithLoss(tr, 0.1, 4)
	res, err := cluster.Run(context.Background(), cfg, token.RandomSet(4, 32, rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Ticks < 3 || adv.last != res.Ticks || adv.queries != res.Ticks {
		t.Errorf("completed %v in %d ticks; adversary queried %d times, last for tick %d: want one query for each of ticks 1..%d",
			res.Completed, res.Ticks, adv.queries, adv.last, res.Ticks)
	}
}

// hostileClusterFingerprint runs the full stack — loss, every mutation
// op, the adaptive adversary, targeted churn — under the lockstep
// driver at the given shard count and fingerprints everything
// observable.
func hostileClusterFingerprint(t *testing.T, seed int64, shards int) string {
	t.Helper()
	const n, k = 10, 8
	sched, err := cluster.ParseChurn("crashmax:30:1,restart:70:1")
	if err != nil {
		t.Fatal(err)
	}
	toks := token.RandomSet(k, 32, rand.New(rand.NewSource(seed)))
	rec := telemetry.New(telemetry.Config{Nodes: n})
	cfg := cluster.Config{
		N: n, Fanout: 2, Mode: cluster.Coded, Seed: seed,
		Lockstep: true, Shards: shards, MaxTicks: 200000, Churn: sched, Telemetry: rec,
	}
	tr := cluster.WithLoss(cfg.DefaultTransport(0), 0.1, seed+103)
	tr = hostile.WithMutator(tr, hostile.MutationSpec{Dup: 0.05, Stale: 0.05, Trunc: 0.03, Flip: 0.02, Xgen: 0.03}, seed+105, rec)
	cfg.Transport = hostile.WithAdversary(tr, hostile.NewAdaptive(n, seed+104, rec), rec)
	res, err := cluster.Run(context.Background(), cfg, toks)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("hostile cluster run incomplete (seed %d)", seed)
	}
	c := rec.Counters()
	if c["events_adv_cut"] == 0 || c["events_mutate"] == 0 {
		t.Fatalf("hostile layers recorded no telemetry (adv_cut %d, mutate %d, seed %d)",
			c["events_adv_cut"], c["events_mutate"], seed)
	}
	return fmt.Sprintf("ticks=%d out=%d in=%d dropped=%d bits=%d cuts=%d mutates=%d",
		res.Ticks, res.PacketsOut, res.PacketsIn, res.Dropped, res.BitsOut,
		c["events_adv_cut"], c["events_mutate"])
}

// TestHostileLockstepBitReproducible is the determinism gate from the
// issue: with every fault layer engaged, a lockstep run is a pure
// function of the seed — same ticks, same packet counts, same cut and
// mutation tallies — checked at two different seeds, which must also
// disagree with each other (the layers actually draw from the seed).
func TestHostileLockstepBitReproducible(t *testing.T) {
	seeds := []int64{3, 17}
	prints := make(map[int64]string)
	for _, seed := range seeds {
		first := hostileClusterFingerprint(t, seed, 1)
		second := hostileClusterFingerprint(t, seed, 1)
		if first != second {
			t.Fatalf("seed %d not reproducible:\n  %s\n  %s", seed, first, second)
		}
		prints[seed] = first
	}
	if prints[seeds[0]] == prints[seeds[1]] {
		t.Errorf("different seeds produced identical runs (%s): the stack ignores the seed", prints[seeds[0]])
	}
}

// TestHostileShardedBitIdentical runs the full hostile stack — loss,
// every mutation op, the adaptive adversary, targeted churn — under
// the sharded lockstep engine, whose emit phase Sends from every shard
// at once, and checks the transcript is byte-identical to serial at
// every shard count: the strictest test of the layers' per-sender
// keying the engine faces.
func TestHostileShardedBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		serial := hostileClusterFingerprint(t, seed, 1)
		for _, shards := range []int{4, runtime.GOMAXPROCS(0)} {
			if got := hostileClusterFingerprint(t, seed, shards); got != serial {
				t.Errorf("seed %d shards %d diverges:\n  serial: %s\n  sharded: %s", seed, shards, serial, got)
			}
		}
	}
}

// TestHostileFingerprintPinned pins the fingerprints the two tests above
// compare only with each other.
func TestHostileFingerprintPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		3:  "ticks=128 out=2338 in=460 dropped=1966 bits=244832 cuts=1917 mutates=84",
		17: "ticks=79 out=1462 in=271 dropped=1209 bits=152480 cuts=1183 mutates=41",
	} {
		if got := hostileClusterFingerprint(t, seed, 1); got != want {
			t.Errorf("seed %d: %s, want %s", seed, got, want)
		}
	}
}
