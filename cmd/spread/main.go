// Command spread visualizes how information spreads through a dynamic
// network round by round: it runs a coded indexed broadcast with a trace
// recorder attached and prints the knowledge and innovation curves as
// terminal sparklines — the Section 5.2 "wasted broadcasts" shape made
// visible.
//
// Usage:
//
//	spread -n 64 -adv rotating-path
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/trace"
)

func main() {
	var (
		n       = flag.Int("n", 32, "number of nodes (k = n tokens)")
		d       = flag.Int("d", 8, "token payload bits")
		advName = flag.String("adv", "random", "adversary: random | rotating-path | static-<topology>")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *n, *d, *advName, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "spread:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, n, d int, advName string, seed int64) error {
	adv, err := adversary.Named(advName, n, seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	initial := make([][]rlnc.Coded, n)
	rngs := make([]*rand.Rand, n)
	for i := range initial {
		initial[i] = []rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(d, rng.Uint64))}
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)*101 + 7))
	}
	rec := trace.NewRecorder(n)
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: n + d, Observer: rec})
	if _, err := rlnc.IndexedBroadcast(s, n, d, initial, rngs, rlnc.DefaultSchedule(n, n), false); err != nil {
		return err
	}
	fmt.Fprintf(w, "coded indexed broadcast, n = k = %d, d = %d, adversary = %s, seed = %d\n\n", n, d, advName, seed)
	fmt.Fprint(w, rec.Report())
	// The early-decoding onset makes the Section 5.2 shape concrete:
	// ranks grow from round one, but tokens beyond a node's own initial
	// one (mean >= 2) surface only once spans close in on full rank.
	for _, s := range rec.Samples() {
		if s.MeanDecodable >= 2 {
			fmt.Fprintf(w, "first round decoding a non-initial token (mean >= 2): %d\n", s.Round)
			break
		}
	}
	return nil
}
