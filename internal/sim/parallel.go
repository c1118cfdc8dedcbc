package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// TrialFunc is one seeded trial. It must be a pure function of the seed
// (construct all randomness from the seed inside the function) so that
// serial and parallel sweeps produce identical results.
type TrialFunc func(seed int64) (float64, error)

// ParallelConfig tunes a parallel sweep.
type ParallelConfig struct {
	// Workers is the worker-pool width; <= 0 means GOMAXPROCS. Workers
	// only changes wall-clock time, never results: trials are merged in
	// seed order.
	Workers int
	// Progress, when non-nil, is called after each completed trial with
	// the running completion count and the total. Calls are serialized
	// and done counts are strictly increasing.
	Progress func(done, total int)
}

func (c ParallelConfig) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// ParallelSeeded runs fn for seeds 0..n-1 on a bounded worker pool and
// returns the results in seed order. On failure the sweep aborts early
// (workers stop claiming seeds) and the error of the lowest failing
// seed among the trials that ran is reported, in the serial sweep's
// "sim: trial %d" format. Cancelling ctx likewise stops workers from
// claiming new seeds; in-flight trials finish and the context error is
// returned.
func ParallelSeeded[T any](ctx context.Context, cfg ParallelConfig, n int, fn func(seed int64) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	var (
		next      atomic.Int64
		completed atomic.Int64
		failed    atomic.Bool
		mu        sync.Mutex
		done      int
		wg        sync.WaitGroup
	)
	for w := cfg.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed := next.Add(1) - 1
				if seed >= int64(n) || failed.Load() || ctx.Err() != nil {
					return
				}
				out[seed], errs[seed] = fn(seed)
				if errs[seed] != nil {
					failed.Store(true)
				}
				completed.Add(1)
				if cfg.Progress != nil {
					mu.Lock()
					done++
					cfg.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for seed, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: trial %d: %w", seed, err)
		}
	}
	if completed.Load() < int64(n) {
		// Only possible via cancellation: workers stopped claiming seeds.
		return nil, ctx.Err()
	}
	return out, nil
}

// ParallelTrials runs fn for seeds 0..n-1 on a bounded worker pool and
// summarizes the results. Because results are merged in seed order and
// trials derive all randomness from their seed, the Summary is
// bit-identical to a serial loop's (Workers: 1) for the same n and fn,
// at any worker count.
func ParallelTrials(ctx context.Context, cfg ParallelConfig, n int, fn TrialFunc) (Summary, error) {
	xs, err := ParallelSeeded(ctx, cfg, n, fn)
	if err != nil {
		return Summary{}, err
	}
	return Summarize(xs), nil
}
