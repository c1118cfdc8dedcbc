// Package shard partitions node ids into contiguous ranges and fans a
// phase function out over them, one worker goroutine per shard. It is
// the parallel half of the sharded lockstep engine: drivers run the
// per-node phases of a tick (sample, drain, emit) through Executor.Run
// and keep everything order-sensitive (tick observation, churn,
// completion checks) in the serial barrier between phases. A phase
// that Sends needs a fabric on which one sender's fate cannot depend on
// another's timing; the engine's own tick mailbox is one.
//
// The partition is a pure function of (n, shards): shard s owns the
// contiguous id range [lo, hi) with sizes differing by at most one,
// lower shards taking the larger ranges.
package shard

import "sync"

// Executor fans a phase over a fixed partition of n items into
// contiguous shard ranges. The zero value is not useful; construct
// with New. An Executor is stateless between Run calls and safe to
// reuse for every tick of a run.
type Executor struct {
	n      int
	shards int
}

// New returns an executor partitioning ids [0, n) into the given
// number of contiguous shards. Shards is clamped to [1, max(n, 1)]:
// more shards than items would only mint empty ranges, and every
// driver treats shards <= 1 as "serial".
func New(n, shards int) *Executor {
	if shards < 1 {
		shards = 1
	}
	if n > 0 && shards > n {
		shards = n
	}
	return &Executor{n: n, shards: shards}
}

// N returns the number of partitioned items.
func (e *Executor) N() int { return e.n }

// Shards returns the effective (clamped) shard count.
func (e *Executor) Shards() int { return e.shards }

// Range returns shard s's contiguous half-open id range [lo, hi).
// The first n%shards shards hold one extra item each.
func (e *Executor) Range(s int) (lo, hi int) {
	size, rem := e.n/e.shards, e.n%e.shards
	if s < rem {
		lo = s * (size + 1)
		return lo, lo + size + 1
	}
	lo = rem*(size+1) + (s-rem)*size
	return lo, lo + size
}

// Run executes phase(s, lo, hi) for every shard and returns after all
// have finished. With one shard the phase runs inline on the caller's
// goroutine — the serial engine pays no synchronization and no
// goroutine switch, which keeps shards=1 byte-identical in timing
// behavior to the pre-sharding drivers. With more shards each phase
// runs on its own goroutine; Run is the barrier.
//
// The phase must confine itself to state owned by its id range (plus
// read-only shared state): Run provides the fan-out and the join, not
// isolation.
func (e *Executor) Run(phase func(s, lo, hi int)) {
	if e.shards == 1 {
		phase(0, 0, e.n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(e.shards)
	for s := 0; s < e.shards; s++ {
		go func(s int) {
			defer wg.Done()
			lo, hi := e.Range(s)
			phase(s, lo, hi)
		}(s)
	}
	wg.Wait()
}
