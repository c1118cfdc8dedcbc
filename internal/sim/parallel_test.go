package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// trialFn is a deterministic, intentionally uneven workload: trials
// finish at different speeds so parallel completion order differs from
// seed order, which is exactly what the seed-ordered merge must hide.
func trialFn(seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	steps := 100 + rng.Intn(int(seed)%7*300+1)
	acc := 0.0
	for i := 0; i < steps; i++ {
		acc += rng.Float64()
	}
	return acc, nil
}

// serialTrials is the reference the pool is held to: a plain loop over
// seeds 0..n-1, summarized.
func serialTrials(t *testing.T, n int, fn TrialFunc) Summary {
	t.Helper()
	xs := make([]float64, 0, n)
	for seed := int64(0); seed < int64(n); seed++ {
		x, err := fn(seed)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	return Summarize(xs)
}

// TestParallelTrialsMatchesSerial is the differential property test: for
// the same seed set, ParallelTrials must produce a Summary bit-identical
// to the serial loop at every worker count.
func TestParallelTrialsMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 3, 17, 64} {
		want := serialTrials(t, n, trialFn)
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			got, err := ParallelTrials(context.Background(), ParallelConfig{Workers: workers}, n, trialFn)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d workers=%d: parallel summary %+v != serial %+v", n, workers, got, want)
			}
		}
	}
}

// TestParallelSeededOrder checks that results land at their seed index
// regardless of completion order.
func TestParallelSeededOrder(t *testing.T) {
	const n = 100
	out, err := ParallelSeeded(context.Background(), ParallelConfig{Workers: 8}, n,
		func(seed int64) (int64, error) { return seed * seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != int64(i)*int64(i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestParallelTrialsErrorIsLowestSeed checks the serial-compatible error
// contract: the reported failure is the lowest failing seed even when a
// later worker fails first.
func TestParallelTrialsErrorIsLowestSeed(t *testing.T) {
	boom := errors.New("boom")
	_, err := ParallelTrials(context.Background(), ParallelConfig{Workers: 4}, 20,
		func(seed int64) (float64, error) {
			if seed%2 == 1 {
				return 0, fmt.Errorf("seed %d: %w", seed, boom)
			}
			return float64(seed), nil
		})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := "sim: trial 1:"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %q, want prefix %q (lowest failing seed)", err, want)
	}
}

// TestParallelTrialsFailFast checks that a failing trial stops the
// sweep from running all remaining seeds.
func TestParallelTrialsFailFast(t *testing.T) {
	const n = 100000
	var ran atomic.Int64
	_, err := ParallelTrials(context.Background(), ParallelConfig{Workers: 4}, n,
		func(seed int64) (float64, error) {
			ran.Add(1)
			if seed == 0 {
				return 0, errors.New("boom")
			}
			return float64(seed), nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got >= n {
		t.Errorf("all %d trials ran despite an early failure", got)
	}
}

// TestParallelTrialsCancellation checks that cancelling the context
// aborts the sweep with the context error instead of partial results.
func TestParallelTrialsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := ParallelTrials(ctx, ParallelConfig{Workers: 2}, 10000,
		func(seed int64) (float64, error) {
			if started.Add(1) == 3 {
				cancel()
			}
			return float64(seed), nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelTrialsProgress checks progress reporting is serialized,
// strictly increasing, and complete.
func TestParallelTrialsProgress(t *testing.T) {
	const n = 50
	last := 0
	_, err := ParallelTrials(context.Background(), ParallelConfig{
		Workers: 8,
		Progress: func(done, total int) {
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			if done != last+1 {
				t.Errorf("done = %d after %d, want strictly increasing by 1", done, last)
			}
			last = done
		},
	}, n, trialFn)
	if err != nil {
		t.Fatal(err)
	}
	if last != n {
		t.Errorf("final progress %d, want %d", last, n)
	}
}

// TestParallelTrialsEmpty mirrors the serial loop on n = 0.
func TestParallelTrialsEmpty(t *testing.T) {
	got, err := ParallelTrials(context.Background(), ParallelConfig{}, 0, trialFn)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialTrials(t, 0, trialFn); got != want {
		t.Errorf("empty sweep: parallel %+v != serial %+v", got, want)
	}
}
