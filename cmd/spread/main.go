// Command spread visualizes how information spreads through a dynamic
// network round by round: it runs a coded indexed broadcast, samples
// every node's rank and decodable tokens after each round, and prints
// the knowledge and innovation curves as terminal sparklines — the
// Section 5.2 "wasted broadcasts" shape made visible.
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
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/keyed"
	"repro/internal/rlnc"
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
	rng := keyed.Rand(seed, keyed.Payloads)
	initial := make([][]rlnc.Coded, n)
	for i := range initial {
		initial[i] = []rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(d, rng.Uint64))}
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: n + d})
	samples, err := sampleRun(s, d, initial, keyed.Rands(n, seed, keyed.Coins))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "coded indexed broadcast, n = k = %d, d = %d, adversary = %s, seed = %d\n\n", n, d, advName, seed)
	fmt.Fprint(w, report(samples, n))
	// The early-decoding onset makes the Section 5.2 shape concrete:
	// ranks grow from round one, but tokens beyond a node's own initial
	// one (mean >= 2) surface only once spans close in on full rank.
	if r := slices.IndexFunc(samples, func(sm sample) bool { return sm.decodable >= 2 }); r >= 0 {
		fmt.Fprintf(w, "first round decoding a non-initial token (mean >= 2): %d\n", r)
	}
	return nil
}

// sample is one round's state over all nodes: the least, mean and
// largest span rank, and the mean number of individually recoverable
// tokens (early decoding, ahead of full rank).
type sample struct {
	minRank, maxRank    int
	meanRank, decodable float64
}

// sampleRun runs Lemma 5.3 with k = n (node i holds token i, initial[i])
// on s for its full DefaultSchedule and samples every round; samples[r]
// is the state after round r.
func sampleRun(s *dynnet.Session, d int, initial [][]rlnc.Coded, rngs []*rand.Rand) ([]sample, error) {
	n := len(initial)
	rounds := rlnc.DefaultSchedule(n, n)
	samples := make([]sample, 0, rounds)
	sampler := func(nodes []*rlnc.BroadcastNode) bool {
		sm := sample{minRank: n}
		ranks, decodable := 0, 0
		for _, nd := range nodes {
			r := nd.Span().Rank()
			sm.minRank, sm.maxRank = min(sm.minRank, r), max(sm.maxRank, r)
			ranks += r
			decodable += nd.Span().DecodableCount()
		}
		sm.meanRank = float64(ranks) / float64(n)
		sm.decodable = float64(decodable) / float64(n)
		samples = append(samples, sm)
		return len(samples) == rounds
	}
	_, err := rlnc.IndexedBroadcast(s, n, d, initial, rngs, rounds, sampler)
	return samples, err
}

// innovation returns, per round after the first, the increase of the
// mean rank — the fraction of communication that carried new
// information. Its early-high late-low shape is the "wasted
// broadcasts" phenomenon of Section 5.2.
func innovation(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for r := 1; r < len(samples); r++ {
		out = append(out, samples[r].meanRank-samples[r-1].meanRank)
	}
	return out
}

// report renders the run's summary lines and its three curves: mean
// rank, innovation, and the mean decodable tokens, whose long flat start
// followed by a late surge is the dual of the innovation curve.
func report(samples []sample, k int) string {
	var sb strings.Builder
	last := samples[len(samples)-1]
	fmt.Fprintf(&sb, "rounds observed: %d, final knowledge min/mean/max: %d/%.1f/%d\n",
		len(samples), last.minRank, last.meanRank, last.maxRank)
	if r := slices.IndexFunc(samples, func(sm sample) bool { return sm.minRank >= k }); r >= 0 {
		fmt.Fprintf(&sb, "all nodes complete at round %d\n", r)
	}
	means := make([]float64, len(samples))
	decodable := make([]float64, len(samples))
	for r, sm := range samples {
		means[r], decodable[r] = sm.meanRank, sm.decodable
	}
	fmt.Fprintf(&sb, "mean knowledge:  %s\n", sparkline(means, 60))
	fmt.Fprintf(&sb, "innovation rate: %s\n", sparkline(innovation(samples), 60))
	if last.decodable > 0 {
		fmt.Fprintf(&sb, "decodable toks:  %s\n", sparkline(decodable, 60))
	}
	return sb.String()
}

// sparkline renders values as a unicode bar chart for terminal output,
// averaged down to at most width bars.
func sparkline(values []float64, width int) string {
	if len(values) == 0 || width < 1 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	per := max(float64(len(values))/float64(width), 1)
	var bucketed []float64
	for i := 0; i < len(values) && len(bucketed) < width; i = int(float64(i) + per) {
		hi := min(int(float64(i)+per), len(values))
		sum := 0.0
		for _, v := range values[i:hi] {
			sum += v
		}
		bucketed = append(bucketed, sum/float64(hi-i))
	}
	lo, hi := slices.Min(bucketed), slices.Max(bucketed)
	var sb strings.Builder
	for _, v := range bucketed {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(bars)-1))
		}
		sb.WriteRune(bars[idx])
	}
	return sb.String()
}
