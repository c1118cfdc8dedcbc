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

// baseline adapts a forwarding baseline, which reports rounds only.
func baseline(rounds int, err error) (dissem.Result, error) {
	return dissem.Result{Rounds: rounds, Iterations: 1}, err
}

// runOnce executes one dissemination instance at the given seed.
func runOnce(algo string, n, k, b, d, t int, advName, distName string, seed int64) (dissem.Result, error) {
	rng := rand.New(rand.NewSource(seed))
	distribution, err := token.NamedDistribution(distName, n, k, d, rng)
	if err != nil {
		return dissem.Result{}, err
	}
	algorithms := map[string]func(token.Distribution, dissem.Params, dynnet.Adversary) (dissem.Result, error){
		"forward": func(dist token.Distribution, _ dissem.Params, adv dynnet.Adversary) (dissem.Result, error) {
			return baseline(forwarding.RunPipelinedFlood(dist, k, b, d, adv))
		},
		"stable-forward": func(dist token.Distribution, _ dissem.Params, adv dynnet.Adversary) (dissem.Result, error) {
			return baseline(stable.RunFlood(dist, k, b, d, t, adversary.NewTStable(adv, t)))
		},
		"naive":    dissem.Naive,
		"greedy":   dissem.GreedyForward,
		"priority": dissem.PriorityForward,
		"tstable": func(dist token.Distribution, p dissem.Params, adv dynnet.Adversary) (dissem.Result, error) {
			return dissem.TStableDisseminate(dist, p, t, adv)
		},
	}
	run, ok := algorithms[algo]
	if !ok {
		return dissem.Result{}, fmt.Errorf("unknown algorithm %q", algo)
	}
	adv, err := adversary.Named(advName, n, seed+1)
	if err != nil {
		return dissem.Result{}, err
	}
	return run(distribution, dissem.Params{B: b, D: d, Seed: seed}, adv)
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
