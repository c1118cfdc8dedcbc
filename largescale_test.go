//go:build !race

package repro_test

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/token"
)

// TestLargeClusterShardedSmoke is the scale gate of the sharded
// lockstep engine: one n=100k, k=32 coded-gossip run on every core
// (shards = GOMAXPROCS), completing within a CI-class memory budget.
// The one-run membership views and the tick mailbox (one log and one
// slab of a tick's packets, no per-node buffers) are what make the
// footprint linear in n rather than quadratic; the HeapHighWater pin
// below is the regression fence for both. Excluded under the race detector (instrumentation
// multiplies both memory and runtime) and skipped in -short runs.
func TestLargeClusterShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node smoke skipped in -short mode")
	}
	const n, k, payload = 100_000, 32, 32
	// The budget is the run's soft memory limit as well as the pin: the
	// collector then works as hard as it must to keep the process under
	// it, which it can exactly when the live heap fits.
	const memBudget = 3 << 28
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(memBudget))
	toks := token.RandomSet(k, payload, rand.New(rand.NewSource(1)))
	var res *cluster.Result
	m, err := sim.Measure(func() error {
		var runErr error
		res, runErr = cluster.Run(context.Background(), cluster.Config{
			N: n, Fanout: 2, Mode: cluster.Coded, Seed: 1,
			Lockstep: true, Shards: runtime.GOMAXPROCS(0), MaxTicks: 2000,
		}, toks)
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("100k-node run incomplete after %d ticks", res.Ticks)
	}
	t.Logf("n=%d k=%d shards=%d: %d ticks in %v, heap high-water %d MiB",
		n, k, runtime.GOMAXPROCS(0), res.Ticks, m.Runtime, m.HeapHighWater>>20)
	// Peak-memory pin: the heap at run end — live data plus whatever
	// garbage the limit above let the collector leave, so the number says
	// whether the live heap fits in 768 MiB, not how long ago the last
	// cycle happened to finish (the same run reads 489 to 580 MiB under
	// the limit). The dominant terms are per node — the span, the buffer
	// ring — so an O(n²) regression in any per-node table blows through
	// this fence by orders of magnitude, and a return to per-node inbox
	// buffers, or to a 4.9 KB rng source per node, by 500 MiB.
	if m.HeapHighWater > memBudget {
		t.Errorf("heap high-water %d bytes exceeds the %d-byte budget", m.HeapHighWater, memBudget)
	}
}
