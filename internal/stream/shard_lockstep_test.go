package stream

// Bit-equality of the sharded lockstep stream driver against the
// serial one: the windowed pipeline, catch-up serving, ack gossip and
// churn bookkeeping must all replay identically at any shard count.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// shardedStreamFingerprint runs one seeded churn×loss lockstep stream
// run at the given shard count and flattens everything observable —
// aggregates, per-node metrics, the consumer delivery log, telemetry
// counters — into a string. The Deliver tracker takes a mutex: at
// shards>1 it is invoked concurrently from shard workers.
func shardedStreamFingerprint(t *testing.T, seed int64, shards int) string {
	t.Helper()
	const n, k, d, gens, w = 10, 4, 32, 5, 2
	sched, err := cluster.ParseChurn("crash:8:1,join:11:1,leave:15:1,restart:19:1")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	deliveries := make(map[string]int)
	cfg := Config{
		N: n, K: k, PayloadBits: d, Window: w, Generations: gens, Fanout: 2,
		Seed: seed, Lockstep: true, Shards: shards,
		MaxTicks: 100000, Churn: sched,
		Deliver: func(node, gen int, toks []token.Token) {
			mu.Lock()
			deliveries[fmt.Sprintf("n%d/g%d/%d", node, gen, len(toks))]++
			mu.Unlock()
		},
	}
	rec := telemetry.New(telemetry.Config{Nodes: cfg.runtime().MaxNodes()})
	cfg.Telemetry = rec
	cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.15, seed+103)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("seed %d shards %d: %v", seed, shards, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v ticks=%d live=%d out=%d in=%d acks=%d bits=%d dropped=%d toks=%d\n",
		res.Completed, res.Ticks, res.FinalLive, res.PacketsOut, res.PacketsIn,
		res.AcksOut, res.BitsOut, res.Dropped, res.TokensDelivered)
	for id, m := range res.Nodes {
		fmt.Fprintf(&b, "node %d: out=%d in=%d acksOut=%d acksIn=%d hellos=%d bits=%d dropped=%d innov=%d stale=%d delivered=%d done=%v@%d start=%d spawned=%v live=%v join=%d\n",
			id, m.PacketsOut, m.PacketsIn, m.AcksOut, m.AcksIn, m.HellosOut, m.BitsOut,
			m.Dropped, m.Innovative, m.Stale, m.Delivered, m.Done, m.DoneTick,
			m.StartGen, m.Spawned, m.Live, m.JoinTick)
	}
	lines := make([]string, 0, len(deliveries))
	for key, c := range deliveries {
		lines = append(lines, fmt.Sprintf("deliver %s x%d", key, c))
	}
	c := rec.Counters()
	for key, v := range c {
		lines = append(lines, fmt.Sprintf("%s=%d", key, v))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// TestShardedStreamBitIdentical is the quick.Check property for the
// stream driver: arbitrary seeds, churn and loss engaged, sharded runs
// byte-identical to serial at ragged (3), even (4) and host-width
// shard counts.
func TestShardedStreamBitIdentical(t *testing.T) {
	counts := []int{3, 4, runtime.GOMAXPROCS(0)}
	prop := func(rawSeed int64) bool {
		seed := rawSeed%10000 + 1
		serial := shardedStreamFingerprint(t, seed, 1)
		for _, shards := range counts {
			if sharded := shardedStreamFingerprint(t, seed, shards); sharded != serial {
				t.Logf("seed %d shards %d diverges:\n--- serial ---\n%s\n--- shards=%d ---\n%s",
					seed, shards, serial, shards, sharded)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestStreamShardsRequireLockstep pins the library-level validation:
// the async stream driver is already one-goroutine-per-node, so
// Shards>1 without Lockstep is a configuration error.
func TestStreamShardsRequireLockstep(t *testing.T) {
	_, err := Run(context.Background(), Config{
		N: 4, K: 2, PayloadBits: 16, Generations: 2, Shards: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "Lockstep") {
		t.Fatalf("async Shards=2 accepted: %v", err)
	}
}
