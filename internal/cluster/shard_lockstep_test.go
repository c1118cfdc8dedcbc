package cluster

// Bit-equality of the sharded lockstep engine against the serial
// driver: the tentpole property of the sharding refactor. A sharded
// run must be indistinguishable from a serial one in everything
// observable — ticks, every per-node counter, every telemetry tally —
// at every shard count, under churn and loss, for arbitrary seeds.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

// shardedClusterFingerprint runs one seeded churn×loss lockstep run at
// the given shard count and flattens everything observable into a
// string: the run aggregates, every node's full metrics struct, and
// every telemetry counter.
func shardedClusterFingerprint(t *testing.T, seed int64, shards int, mode Mode) string {
	t.Helper()
	const n, k, d = 12, 8, 48
	sched, err := ParseChurn("crash:6:1,join:9:1,leave:13:1,restart:17:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N: n, Fanout: 2, Mode: mode, Seed: seed,
		Lockstep: true, Shards: shards, MaxTicks: 100000, Churn: sched,
	}
	rec := telemetry.New(telemetry.Config{Nodes: cfg.MaxNodes()})
	cfg.Telemetry = rec
	cfg.Transport = WithLoss(cfg.DefaultTransport(0), 0.15, seed+103)
	res, err := Run(context.Background(), cfg, testTokens(k, d, seed))
	if err != nil {
		t.Fatalf("seed %d shards %d: %v", seed, shards, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v ticks=%d live=%d out=%d in=%d bits=%d dropped=%d\n",
		res.Completed, res.Ticks, res.FinalLive, res.PacketsOut, res.PacketsIn, res.BitsOut, res.Dropped)
	for id, m := range res.Nodes {
		fmt.Fprintf(&b, "node %d: out=%d in=%d hellos=%d bits=%d dropped=%d innov=%d done=%v@%d spawned=%v live=%v join=%d\n",
			id, m.PacketsOut, m.PacketsIn, m.HellosOut, m.BitsOut, m.Dropped,
			m.Innovative, m.Done, m.DoneTick, m.Spawned, m.Live, m.JoinTick)
	}
	c := rec.Counters()
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, c[k])
	}
	return b.String()
}

// TestShardedLockstepBitIdentical is the quick.Check property from the
// issue: for arbitrary seeds, the sharded engine at shards 4 and
// GOMAXPROCS (and an uneven 3, which exercises ragged ranges) produces
// byte-identical transcripts to the serial driver, with churn and loss
// engaged.
func TestShardedLockstepBitIdentical(t *testing.T) {
	counts := []int{3, 4, runtime.GOMAXPROCS(0)}
	prop := func(rawSeed int64) bool {
		seed := rawSeed%10000 + 1
		serial := shardedClusterFingerprint(t, seed, 1, Coded)
		for _, shards := range counts {
			if sharded := shardedClusterFingerprint(t, seed, shards, Coded); sharded != serial {
				t.Logf("seed %d shards %d diverges:\n--- serial ---\n%s--- shards=%d ---\n%s",
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

// TestShardedLockstepForwardMode covers the store-and-forward gossiper
// at a fixed seed: sharding lives below the gossiper interface, so
// both protocol disciplines must replay identically.
func TestShardedLockstepForwardMode(t *testing.T) {
	serial := shardedClusterFingerprint(t, 21, 1, Forward)
	for _, shards := range []int{2, 5} {
		if got := shardedClusterFingerprint(t, 21, shards, Forward); got != serial {
			t.Fatalf("forward mode diverges at shards=%d", shards)
		}
	}
}

// TestShardsRequireLockstep pins the library-level validation: the
// async driver is already concurrent, so Shards>1 without Lockstep is
// a configuration error, not a silent fallback.
func TestShardsRequireLockstep(t *testing.T) {
	_, err := Run(context.Background(), Config{N: 4, Shards: 2}, testTokens(2, 16, 1))
	if err == nil || !strings.Contains(err.Error(), "Lockstep") {
		t.Fatalf("async Shards=2 accepted: %v", err)
	}
}
