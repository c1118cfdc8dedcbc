package keyed

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// chi2Crit999 is the 99.9 % critical value of χ² at df degrees of
// freedom (Wilson–Hilferty: 11.2 for the tables' 10.8 at df = 1, within
// half a percent from df = 14 up).
func chi2Crit999(df int) float64 {
	const z = 3.0902 // Φ⁻¹(0.999)
	a := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-a+z*math.Sqrt(a), 3)
}

// chi2 is Pearson's statistic of counts against a uniform expectation.
func chi2(counts []int, draws int) float64 {
	want := float64(draws) / float64(len(counts))
	var x float64
	for _, c := range counts {
		x += (float64(c) - want) * (float64(c) - want) / want
	}
	return x
}

// bitBalance fails unless every bit position of words, and their sum,
// is set within 4σ of half the time.
func bitBalance(t *testing.T, name string, words []uint64) {
	t.Helper()
	var ones [64]int
	total := 0
	for _, w := range words {
		total += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			ones[bits.TrailingZeros64(w)]++
		}
	}
	n := float64(len(words))
	for b, c := range ones {
		if dev := math.Abs(float64(c) - n/2); dev > 4*math.Sqrt(n)/2 {
			t.Errorf("%s: bit %d set in %d of %d words, %.1fσ off half", name, b, c, len(words), dev/(math.Sqrt(n)/2))
		}
	}
	if dev := math.Abs(float64(total) - 32*n); dev > 4*math.Sqrt(64*n)/2 {
		t.Errorf("%s: %d ones in %d words, %.1fσ off half", name, total, len(words), dev/(math.Sqrt(64*n)/2))
	}
}

// TestKeyedStreamBitBalance: 1 Mi words of one stream, every bit
// position and the total within 4σ.
func TestKeyedStreamBitBalance(t *testing.T) {
	rng := Rand(1, Node, 0, 0)
	words := make([]uint64, 1<<20)
	for i := range words {
		words[i] = rng.Uint64()
	}
	bitBalance(t, "one stream", words)
}

// TestKeyedStreamIntnUniform: Intn(n-1) — a peer pick in a view of n —
// over 64 Ki draws, at the view sizes of a toy run, a test run and
// gossip-wide.
func TestKeyedStreamIntnUniform(t *testing.T) {
	const draws = 1 << 16
	for _, n := range []int{3, 16, 8192} {
		rng := Rand(1, Node, int64(n), 0)
		counts := make([]int, n-1)
		for i := 0; i < draws; i++ {
			counts[rng.Intn(n-1)]++
		}
		if x, crit := chi2(counts, draws), chi2Crit999(n-2); x > crit {
			t.Errorf("Intn(%d): χ² = %.1f over %d draws, above the 99.9 %% value %.1f", n-1, x, draws, crit)
		}
	}
}

// TestKeysDifferingByOneDecorrelate takes 8192 keys that differ in one
// word by 1 — neighbouring ids (tick 1 of gossip-wide draws exactly
// these first picks), consecutive seeds, consecutive spawn ticks — and
// requires of their first words what is required of one stream's:
// balanced bits, neighbours differing in half their bits, and a uniform
// first pick.
func TestKeysDifferingByOneDecorrelate(t *testing.T) {
	const n = 8192
	for _, c := range []struct {
		name string
		key  func(i int64) (seed int64, index []int64)
	}{
		{"ids under one seed", func(i int64) (int64, []int64) { return 1, []int64{i, 0} }},
		{"seeds at one id", func(i int64) (int64, []int64) { return i, []int64{0, 0} }},
		{"spawn ticks of one id", func(i int64) (int64, []int64) { return 1, []int64{0, i} }},
	} {
		first := make([]uint64, n)
		flips := make([]uint64, n-1)
		picks := make([]int, n-1)
		for i := range first {
			seed, index := c.key(int64(i))
			first[i] = Rand(seed, Node, index...).Uint64()
			picks[Rand(seed, Node, index...).Intn(n-1)]++
			if i > 0 {
				flips[i-1] = first[i] ^ first[i-1]
			}
		}
		bitBalance(t, c.name+", first words", first)
		bitBalance(t, c.name+", neighbours' first words xored", flips)
		if x, crit := chi2(picks, n), chi2Crit999(n-2); x > crit {
			t.Errorf("%s: χ² of the first Intn(%d) = %.1f, above the 99.9 %% value %.1f", c.name, n-1, x, crit)
		}
	}
}

// TestKeysDoNotCollide: the first words of every purpose × index of a
// small grid, and the key words Word hands out directly (advice
// coefficients, trial seeds), under three seeds whose sums used to
// coincide (S+1: node 0's rng was generation 0's token source, one
// trial's loss stream the next trial's reorder stream, and -seed S+1's
// trials all but one of -seed S's; S+7919: node id's stream was node
// id-1's), are pairwise distinct.
func TestKeysDoNotCollide(t *testing.T) {
	const s = 42
	seen := map[uint64]string{}
	add := func(name string, w uint64) {
		if other, dup := seen[w]; dup {
			t.Errorf("%s and %s are the same word %#x", name, other, w)
		}
		seen[w] = name
	}
	stream := func(name string, seed int64, p Purpose, index ...int64) {
		add(fmt.Sprintf("seed %d %s", seed, name), Rand(seed, p, index...).Uint64())
	}
	for _, seed := range []int64{s, s + 1, s + 7919} {
		for i := int64(0); i < 64; i++ {
			stream(fmt.Sprintf("node %d", i), seed, Node, i, 0)
			stream(fmt.Sprintf("node %d respawned at tick %d", i, i+1), seed, Node, i, i+1)
			stream(fmt.Sprintf("generation %d", i), seed, Generation, i)
			stream(fmt.Sprintf("coins of node %d", i), seed, Coins, i)
			add(fmt.Sprintf("seed %d trial %d", seed, i), Word(seed, Trial, i))
			for r := int64(0); r < 16; r++ {
				for row := int64(0); row < 4; row++ {
					add(fmt.Sprintf("seed %d advice (%d, %d, %d)", seed, i, r, row), Word(seed, Advice, i, r, row))
				}
			}
		}
		for name, p := range map[string]Purpose{
			"churn": Churn, "loss": Loss, "delay": Delay, "reorder": Reorder,
			"adversary": Adversary, "mutator": Mutator, "payloads": Payloads, "topology": Topology,
		} {
			stream(name, seed, p)
		}
	}
	// The collisions the sums had at every seed, by name.
	if Rand(s, Node, 0, 0).Uint64() == Rand(s, Generation, 0).Uint64() {
		t.Error("node 0 codes with the bits generation 0's payloads were drawn from")
	}
	if Rand(s, Payloads).Uint64() == Rand(s, Topology).Uint64() {
		t.Error("a trial's payloads and its topology draw one sequence")
	}
}
