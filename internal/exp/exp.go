// Package exp defines the repository's experiments E1..E14 — the paper's
// "tables and figures". The paper itself is analysis-only, so each
// experiment turns one quantitative theorem into a measured table whose
// shape (scaling exponent, ratio trend, crossover, separation) must
// match the analysis; DESIGN.md carries the index and implementation
// notes. Every experiment is a pure function from a Config
// to a sim.Table so the CLI and the benchmark suite share one
// implementation.
package exp

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/keyed"
	"repro/internal/rlnc"
	"repro/internal/sim"
)

// Config scales an experiment run.
type Config struct {
	// Trials is the number of seeds per data point.
	Trials int
	// Quick shrinks sweeps to benchmark-friendly sizes.
	Quick bool
	// Seed keys all randomness: trial t runs at trialSeed(t).
	Seed int64
	// Workers bounds the per-sweep trial worker pool; 0 means
	// GOMAXPROCS, 1 forces serial execution. Results are identical at
	// every worker count — trials are seeded and merged in seed order.
	Workers int
	// Ctx cancels in-flight sweeps; nil means context.Background().
	Ctx context.Context
	// Progress, when non-nil, observes trial completions per sweep.
	Progress func(done, total int)
}

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return 2
	}
	return 5
}

func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) pcfg() sim.ParallelConfig {
	return sim.ParallelConfig{Workers: c.Workers, Progress: c.Progress}
}

// trialSeed is trial t's seed, keyed so that no two Seeds share a trial.
func (c Config) trialSeed(t int64) int64 { return int64(keyed.Word(c.Seed, keyed.Trial, t)) }

// sweep runs n seeded trials on the worker pool and summarizes them.
func (c Config) sweep(n int, fn sim.TrialFunc) (sim.Summary, error) {
	return sim.ParallelTrials(c.ctx(), c.pcfg(), n, func(t int64) (float64, error) { return fn(c.trialSeed(t)) })
}

// sweepSeeded runs n trials that produce a structured result (rounds
// plus side metrics), fn at each trial's seed, returned in trial order.
func sweepSeeded[T any](c Config, n int, fn func(seed int64) (T, error)) ([]T, error) {
	return sim.ParallelSeeded(c.ctx(), c.pcfg(), n, func(t int64) (T, error) { return fn(c.trialSeed(t)) })
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*sim.Table, error)
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "indexed broadcast finishes in O(n+k) rounds (Lemma 5.3)", E1},
		{"E2", "coding vs forwarding advantage grows with n (Thm 2.3 vs 2.1)", E2},
		{"E3", "rounds scale ~1/b for forwarding, ~1/b^2 for coding (Thm 2.1 vs 2.3)", E3},
		{"E4", "greedy-forward vs priority-forward across b (Thm 7.3 vs 7.5)", E4},
		{"E5", "T-stability: coding gains ~T^2, forwarding ~T (Thm 2.4 vs 2.1)", E5},
		{"E6", "random-forward gathers sqrt(bk/d) tokens (Lemma 7.2)", E6},
		{"E7", "counting by estimate doubling costs ~2x final phase (Sec 4.1)", E7},
		{"E8", "omniscient adversary vs field size (Thm 6.1)", E8},
		{"E9", "end-game: one XOR replaces ~k/2 forwarding rounds (Sec 5.2)", E9},
		{"E10", "centralized coding is linear-time at b = d (Cor 2.6)", E10},
		{"E11", "coded gossip beats store-and-forward under loss (Thm 2.3, lockstep cluster runtime)", E11},
		{"E12", "pipelined generation windows beat sequential streaming under loss (perfect pipelining, stream runtime)", E12},
		{"E13", "coded gossip keeps its edge under node churn; mid-stream joiners catch up (membership subsystem)", E13},
		{"E14", "coding's margin widens under adaptive dynamics and survives hostile packets (fault-injection suite)", E14},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// RunIndexedUntilDecoded runs Lemma 5.3 nodes round by round and returns
// the first round after which every node can decode (the quantity whose
// n-scaling E1 fits). The adversary is rebuilt per trial from the seed.
func RunIndexedUntilDecoded(n, k, d int, adv dynnet.Adversary, seed int64) (int, error) {
	rng := keyed.Rand(seed, keyed.Payloads)
	initial := make([][]rlnc.Coded, n)
	for i := range initial {
		payload := gf.RandomBitVec(d, rng.Uint64)
		if i < k {
			initial[i] = []rlnc.Coded{rlnc.Encode(i, k, payload)}
		}
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: k + d})
	_, err := rlnc.IndexedBroadcast(s, k, d, initial, keyed.Rands(n, seed, keyed.Coins), 64*(n+k), rlnc.Decoded())
	return s.Round(), err
}

// E1 sweeps n with k = n and measures rounds until all nodes decode
// under a fully dynamic random adversary and the rotating path. The
// log-log slope vs n must be ~1 (Lemma 5.3's O(n + k) with k = n).
func E1(cfg Config) (*sim.Table, error) {
	ns := []int{16, 32, 64, 128}
	if cfg.Quick {
		ns = []int{16, 32, 64}
	}
	const d = 8
	t := &sim.Table{
		Caption: "E1: coded indexed broadcast, rounds to full decode (k = n, d = 8)",
		Header:  []string{"n", "random(mean)", "random(max)", "rotpath(mean)"},
	}
	var xs, ys []float64
	for _, n := range ns {
		randomSum, err := cfg.sweep(cfg.trials(), func(seed int64) (float64, error) {
			r, err := RunIndexedUntilDecoded(n, n, d, adversary.NewRandomConnected(n, n/2, seed), seed)
			return float64(r), err
		})
		if err != nil {
			return nil, err
		}
		rotSum, err := cfg.sweep(cfg.trials(), func(seed int64) (float64, error) {
			r, err := RunIndexedUntilDecoded(n, n, d, adversary.NewRotatingPath(n, seed), seed)
			return float64(r), err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.I(n), sim.F(randomSum.Mean), sim.F(randomSum.Max), sim.F(rotSum.Mean))
		xs = append(xs, float64(n))
		ys = append(ys, rotSum.Mean)
	}
	slope, err := sim.FitLogLogSlope(xs, ys)
	if err != nil {
		return nil, err
	}
	t.AddNote("rotating-path slope vs n = %.2f (Lemma 5.3 predicts ~1.0, i.e. O(n+k))", slope)
	return t, nil
}
