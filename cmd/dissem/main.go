// Command dissem runs k-token dissemination instances and prints their
// cost, for interactive exploration of the algorithm/adversary space.
// With -trials > 1 it sweeps seeds on a worker pool and prints summary
// statistics instead of a single run.
//
// Usage:
//
//	dissem -algo greedy -n 64 -k 64 -b 512 -d 8 -adv random -dist one-per-node
//	dissem -algo tstable -T 192 -n 32 -k 128 -dist at-one
//	dissem -algo forward -n 64 -k 64
//	dissem -algo greedy -n 64 -trials 20 -workers 0
//
// Algorithms: forward (Thm 2.1 baseline), naive (Cor 7.1), greedy
// (Thm 7.3), priority (Thm 7.5), tstable (Thm 2.4), stable-forward
// (batched baseline for T-stable networks).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"

	"repro/internal/adversary"
	"repro/internal/dissem"
	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/sim"
	"repro/internal/stable"
	"repro/internal/token"
)

func main() {
	var (
		algo    = flag.String("algo", "greedy", "forward | naive | greedy | priority | tstable | stable-forward")
		n       = flag.Int("n", 32, "number of nodes")
		k       = flag.Int("k", 32, "number of tokens")
		b       = flag.Int("b", 512, "message budget in bits")
		d       = flag.Int("d", 8, "token payload size in bits")
		tt      = flag.Int("T", 1, "stability parameter (tstable and stable-forward)")
		adv     = flag.String("adv", "random", "adversary: random | rotating-path | static-<topology>")
		dist    = flag.String("dist", "one-per-node", "initial distribution: one-per-node | spread | at-one")
		seed    = flag.Int64("seed", 1, "random seed")
		trials  = flag.Int("trials", 1, "seeded trials; > 1 prints summary statistics")
		workers = flag.Int("workers", 0, "trial worker pool width (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()
	if err := run(os.Stdout, *algo, *n, *k, *b, *d, *tt, *adv, *dist, *seed, *trials, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "dissem:", err)
		os.Exit(1)
	}
}

// runOnce executes one dissemination instance at the given seed.
func runOnce(algo string, n, k, b, d, t int, advName, distName string, seed int64) (dissem.Result, error) {
	rng := rand.New(rand.NewSource(seed))
	distribution, err := token.NamedDistribution(distName, n, k, d, rng)
	if err != nil {
		return dissem.Result{}, err
	}
	mkAdv := func() (dynnet.Adversary, error) { return adversary.Named(advName, n, seed+1) }
	params := dissem.Params{B: b, D: d, Seed: seed}

	var res dissem.Result
	switch algo {
	case "forward":
		a, err := mkAdv()
		if err != nil {
			return res, err
		}
		rounds, err := forwarding.RunPipelinedFlood(distribution, k, b, d, a)
		if err != nil {
			return res, err
		}
		res = dissem.Result{Rounds: rounds, Iterations: 1}
	case "stable-forward":
		a, err := mkAdv()
		if err != nil {
			return res, err
		}
		rounds, err := stable.RunFlood(distribution, k, b, d, t, adversary.NewTStable(a, t))
		if err != nil {
			return res, err
		}
		res = dissem.Result{Rounds: rounds, Iterations: 1}
	case "naive":
		a, err := mkAdv()
		if err != nil {
			return res, err
		}
		if res, err = dissem.Naive(distribution, params, a); err != nil {
			return res, err
		}
	case "greedy":
		a, err := mkAdv()
		if err != nil {
			return res, err
		}
		if res, err = dissem.GreedyForward(distribution, params, a); err != nil {
			return res, err
		}
	case "priority":
		a, err := mkAdv()
		if err != nil {
			return res, err
		}
		if res, err = dissem.PriorityForward(distribution, params, a); err != nil {
			return res, err
		}
	case "tstable":
		a, err := mkAdv()
		if err != nil {
			return res, err
		}
		if res, err = dissem.TStableDisseminate(distribution, params, t, a); err != nil {
			return res, err
		}
	default:
		return res, fmt.Errorf("unknown algorithm %q", algo)
	}
	return res, nil
}

func run(w io.Writer, algo string, n, k, b, d, t int, advName, distName string, seed int64, trials, workers int) error {
	fmt.Fprintf(w, "algo=%s n=%d k=%d b=%d d=%d T=%d adv=%s dist=%s seed=%d\n", algo, n, k, b, d, t, advName, distName, seed)
	if trials > 1 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		sum, err := sim.ParallelTrials(ctx, sim.ParallelConfig{Workers: workers}, trials,
			func(trialSeed int64) (float64, error) {
				res, err := runOnce(algo, n, k, b, d, t, advName, distName, seed+trialSeed)
				return float64(res.Rounds), err
			})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trials=%d rounds mean=%.1f median=%.1f min=%.0f max=%.0f\n",
			sum.N, sum.Mean, sum.Median, sum.Min, sum.Max)
		fmt.Fprintln(w, "all nodes decoded all tokens in every trial: verified")
		return nil
	}
	res, err := runOnce(algo, n, k, b, d, t, advName, distName, seed)
	if err != nil {
		return err
	}
	if res.Messages > 0 {
		fmt.Fprintf(w, "rounds=%d iterations=%d messages=%d bits=%d\n", res.Rounds, res.Iterations, res.Messages, res.Bits)
	} else {
		// The forwarding baselines report rounds only.
		fmt.Fprintf(w, "rounds=%d\n", res.Rounds)
	}
	fmt.Fprintln(w, "all nodes decoded all tokens: verified")
	return nil
}
