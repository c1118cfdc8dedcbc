package shard

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPartitionCoversEveryID checks, across a grid of (n, shards)
// shapes including clamping cases, that the ranges are contiguous,
// ascending, disjoint, cover [0, n) exactly, and differ in size by at
// most one.
func TestPartitionCoversEveryID(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 64, 1000} {
		for _, shards := range []int{-1, 0, 1, 2, 3, 4, 7, 8, 64, 2000} {
			e := New(n, shards)
			if e.shards < 1 {
				t.Fatalf("New(%d,%d): %d shards", n, shards, e.shards)
			}
			if n > 0 && e.shards > n {
				t.Fatalf("New(%d,%d): %d shards exceed items", n, shards, e.shards)
			}
			next, minSize, maxSize := 0, n+1, -1
			for s := 0; s < e.shards; s++ {
				lo, hi := e.Range(s)
				if lo != next || hi < lo {
					t.Fatalf("New(%d,%d) shard %d: range [%d,%d) after %d", n, shards, s, lo, hi, next)
				}
				if hi-lo < minSize {
					minSize = hi - lo
				}
				if hi-lo > maxSize {
					maxSize = hi - lo
				}
				next = hi
			}
			if next != n {
				t.Fatalf("New(%d,%d): ranges end at %d, want %d", n, shards, next, n)
			}
			for s := 0; s < e.shards; s++ {
				lo, hi := e.Range(s)
				for id := lo; id < hi; id++ {
					if got := e.ShardOf(id); got != s {
						t.Fatalf("New(%d,%d): ShardOf(%d) = %d, Range says %d", n, shards, id, got, s)
					}
				}
			}
			if maxSize-minSize > 1 {
				t.Fatalf("New(%d,%d): shard sizes span %d..%d", n, shards, minSize, maxSize)
			}
		}
	}
}

// TestRunVisitsEveryIDOnce marks every id from its owning phase and
// checks single coverage, with the shard argument matching Range.
func TestRunVisitsEveryIDOnce(t *testing.T) {
	const n = 257
	for _, shards := range []int{1, 2, 4, 16} {
		e := New(n, shards)
		seen := make([]int32, n)
		e.Run(func(s, lo, hi int) {
			wantLo, wantHi := e.Range(s)
			if lo != wantLo || hi != wantHi {
				t.Errorf("shards=%d phase %d got [%d,%d), Range says [%d,%d)", shards, s, lo, hi, wantLo, wantHi)
			}
			for id := lo; id < hi; id++ {
				atomic.AddInt32(&seen[id], 1)
			}
		})
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("shards=%d: id %d visited %d times", shards, id, c)
			}
		}
	}
}

// TestRunSingleShardInline pins the serial fast path: with one shard
// the phase runs on the calling goroutine (no spawn, no barrier), so
// shards=1 is exactly the pre-sharding serial driver.
func TestRunSingleShardInline(t *testing.T) {
	caller := goroutineID()
	var phaseGo string
	New(10, 1).Run(func(s, lo, hi int) {
		phaseGo = goroutineID()
		if s != 0 || lo != 0 || hi != 10 {
			t.Errorf("single-shard phase got (%d, %d, %d)", s, lo, hi)
		}
	})
	if phaseGo == "" {
		t.Fatal("phase never ran")
	}
	if phaseGo != caller {
		t.Errorf("single-shard Run ran on goroutine %s, caller is %s", phaseGo, caller)
	}
}

// goroutineID returns the "goroutine N" prefix of the current stack,
// which identifies the running goroutine for equality checks.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '['); i > 0 {
		return string(bytes.TrimSpace(buf[:i]))
	}
	return string(buf)
}

// TestRunParallelActuallyOverlaps only makes sense with >1 core; with
// GOMAXPROCS=1 goroutines still interleave at the barrier, so instead
// of timing we assert all phases ran before Run returned even when
// each phase blocks until every other phase has started — which can
// only finish if the phases run concurrently, not sequentially.
func TestRunParallelActuallyOverlaps(t *testing.T) {
	const shards = 4
	e := New(shards*8, shards)
	started := make(chan int, shards)
	release := make(chan struct{})
	var order []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(func(s, lo, hi int) {
			started <- s
			<-release
		})
	}()
	for i := 0; i < shards; i++ {
		order = append(order, <-started)
	}
	close(release)
	<-done
	if len(order) != shards {
		t.Fatalf("%d phases started, want %d", len(order), shards)
	}
}
