package exp

import (
	"repro/internal/adversary"
	"repro/internal/count"
	"repro/internal/derand"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/keyed"
	"repro/internal/rlnc"
	"repro/internal/sim"
	"repro/internal/stable"
	"repro/internal/token"
)

// E5 measures the Lemma 8.1 / Theorem 2.4 stability claim in its
// throughput form: one full share-pass-share broadcast ships
// Blocks*Payload ~ T^2 bits from a single node to everyone in roughly
// T-independent round counts (the O(n log n) regime with bT^2 <~ n), so
// the coded bits-per-round grows ~quadratically with T; the forwarding
// baseline's throughput grows only ~linearly (Theorem 2.1, tight for
// knowledge-based forwarding). The paper's asymptotic regime bT^2 <= n
// is unreachable with realistic message sizes at laptop n, so the coded
// vector is scaled with T as stable.ScaledGeometry describes.
func E5(cfg Config) (*sim.Table, error) {
	n := 64
	ts := []int{48, 96, 192}
	if cfg.Quick {
		n = 48
		ts = []int{48, 96}
	}
	const (
		b    = 160 // chunk = b - 128 header = 32 bits
		kFwd = 64  // forwarding workload (tokens at one node)
		d    = 8
	)
	t := &sim.Table{
		Caption: "E5: T-stable throughput, coded broadcast vs forwarding (n = " + sim.I(n) + ", b = 160)",
		Header:  []string{"T", "capacity(bT^2)", "coded bits", "coded rounds", "coded bits/rnd", "fwd rounds", "fwd bits/rnd"},
	}
	var xs, ycap, yc, yf []float64
	for _, T := range ts {
		T := T
		geo := stable.ScaledGeometry(b, T)
		blocks, payload := geo.Blocks, geo.Payload
		bits := float64(geo.Capacity())
		coded, err := cfg.sweep(cfg.trials(), func(seed int64) (float64, error) {
			rng := keyed.Rand(seed, keyed.Payloads)
			initial := make([][]rlnc.Coded, n)
			for j := 0; j < blocks; j++ {
				initial[0] = append(initial[0], rlnc.Encode(j, blocks, gf.RandomBitVec(payload, rng.Uint64)))
			}
			tadv := adversary.NewTStable(adversary.NewRandomConnected(n, n, seed), T)
			s := dynnet.NewSession(n, tadv, dynnet.Config{BitBudget: b})
			if _, err := stable.Broadcast(s, tadv, geo, initial, keyed.Rands(n, seed, keyed.Coins)); err != nil {
				return 0, err
			}
			return float64(s.Metrics().Rounds), nil
		})
		if err != nil {
			return nil, err
		}
		fwd, err := cfg.sweep(cfg.trials(), func(seed int64) (float64, error) {
			dist := token.AtOne(n, kFwd, d, keyed.Rand(seed, keyed.Payloads))
			r, err := stable.RunFlood(dist, kFwd, b, d, T,
				adversary.NewTStable(adversary.NewRandomConnected(n, n, seed), T))
			return float64(r), err
		})
		if err != nil {
			return nil, err
		}
		fwdBits := float64(kFwd * (token.UIDBits + d))
		fullGeo, err := stable.PlanGeometry(n, b, T)
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.I(T), sim.I(fullGeo.Capacity()), sim.F(bits), sim.F(coded.Mean),
			sim.F(bits/coded.Mean), sim.F(fwd.Mean), sim.F(fwdBits/fwd.Mean))
		xs = append(xs, float64(T))
		ycap = append(ycap, float64(fullGeo.Capacity()))
		yc = append(yc, bits/coded.Mean)
		yf = append(yf, fwdBits/fwd.Mean)
	}
	scap, err := sim.FitLogLogSlope(xs, ycap)
	if err != nil {
		return nil, err
	}
	sc, err := sim.FitLogLogSlope(xs, yc)
	if err != nil {
		return nil, err
	}
	sf, err := sim.FitLogLogSlope(xs, yf)
	if err != nil {
		return nil, err
	}
	t.AddNote("per-window capacity slope vs T = %.2f (the (bT)^2 mechanism; Lemma 8.1)", scap)
	t.AddNote("measured coded throughput slope vs T = %.2f; forwarding = %.2f", sc, sf)
	t.AddNote("the full T^2-vs-T separation needs the paper's regime bT^2 <~ n (kd >~ b^2 T^3 log n),")
	t.AddNote("beyond laptop scale at byte-sized b; the mechanism and whp completion are what we verify")
	return t, nil
}

// E7 sweeps n and measures the counting application: total rounds across
// all doubling phases versus the final successful phase alone. The
// geometric schedule bounds the ratio by a constant near 2.
func E7(cfg Config) (*sim.Table, error) {
	ns := []int{8, 16, 32, 64}
	if cfg.Quick {
		ns = []int{8, 16, 32}
	}
	const b = 1024
	t := &sim.Table{
		Caption: "E7: counting by estimate doubling (b = 1024)",
		Header:  []string{"n", "estimate", "phases", "total rounds", "final phase", "ratio"},
	}
	maxRatio := 0.0
	for _, n := range ns {
		n := n
		runs, err := sweepSeeded(cfg, cfg.trials(), func(seed int64) (count.Result, error) {
			return count.Run(n, b, adversary.NewRandomConnected(n, n/2, seed), seed)
		})
		if err != nil {
			return nil, err
		}
		res := runs[len(runs)-1]
		ratio := float64(res.TotalRounds) / float64(res.FinalPhaseRounds)
		if ratio > maxRatio {
			maxRatio = ratio
		}
		t.AddRow(sim.I(n), sim.I(res.Estimate), sim.I(res.Phases),
			sim.I(res.TotalRounds), sim.I(res.FinalPhaseRounds), sim.F(ratio))
	}
	t.AddNote("max total/final ratio = %.2f (Section 4.1's geometric-sum argument predicts <= ~2)", maxRatio)
	return t, nil
}

// E8 sweeps the field size against the omniscient stalling adversary of
// Theorem 6.1 and reports the stall fraction, whether an O(n) schedule
// decoded, and the coefficient-header cost k*lg(q) — the price of
// omniscient-resilience that Corollary 6.2 pays.
func E8(cfg Config) (*sim.Table, error) {
	n := 16
	if cfg.Quick {
		n = 12
	}
	const pe = 4
	schedule := 20 * n
	fields := []gf.Field{gf.GF2{}, gf.MustGF2e(4), gf.MustGF2e(8), gf.MustPrime(257), gf.MustPrime(65537)}
	t := &sim.Table{
		Caption: "E8: omniscient adversary vs field size (n = k = " + sim.I(n) + ", schedule 20n)",
		Header:  []string{"field", "stall frac", "decoded", "header bits (k lg q)"},
	}
	var fracs []float64
	for _, f := range fields {
		f := f
		type stallTrial struct {
			frac    float64
			decoded bool
		}
		runs, err := sweepSeeded(cfg, cfg.trials(), func(seed int64) (stallTrial, error) {
			ok, stalls, rounds, err := derand.RunOmniscientBroadcast(f, n, pe, schedule, seed)
			if err != nil {
				return stallTrial{}, err
			}
			st := stallTrial{decoded: ok}
			if rounds > 0 {
				st.frac = float64(stalls) / float64(rounds)
			}
			return st, nil
		})
		if err != nil {
			return nil, err
		}
		decodedAll := true
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.frac
			decodedAll = decodedAll && r.decoded
		}
		frac := sim.Summarize(xs)
		t.AddRow(f.String(), sim.F(frac.Mean), boolStr(decodedAll), sim.I(n*f.Bits()))
		fracs = append(fracs, frac.Mean)
	}
	t.AddNote("stall fraction must fall with q (GF(2) near 1, large fields near 0): %v",
		fracs[0] > 0.5 && fracs[len(fracs)-1] < 0.1)
	t.AddNote("required lg q for the Thm 6.1 union bound at this size: %.0f bits",
		derand.RequiredFieldBits(n, n, schedule, 1))
	return t, nil
}

// E9 is the Section 5.2 end-game scenario: node A knows all k tokens,
// node B misses one (A does not know which). Random forwarding needs
// ~k/2 expected rounds; a single XOR of all tokens finishes in one.
func E9(cfg Config) (*sim.Table, error) {
	ks := []int{16, 64, 256}
	if cfg.Quick {
		ks = []int{16, 64}
	}
	t := &sim.Table{
		Caption: "E9: end-game — B misses one of A's k tokens",
		Header:  []string{"k", "forward rounds (mean)", "k/2", "coded rounds"},
	}
	for _, k := range ks {
		k := k
		fwd, err := cfg.sweep(cfg.trials()*4, func(seed int64) (float64, error) {
			return endgameForwardRounds(k, seed), nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.I(k), sim.F(fwd.Mean), sim.F(float64(k)/2), "1")
	}
	t.AddNote("one coded message always suffices; forwarding averages ~k/2 (Section 5.2)")
	return t, nil
}

// endgameForwardRounds simulates the best randomized forwarding
// strategy: A sends its tokens in a uniformly random order (never
// repeating) until B's missing token arrives. The expected round count
// is (k+1)/2, the paper's "randomized strategies can improve the
// expected number of rounds only to k/2".
func endgameForwardRounds(k int, seed int64) float64 {
	rng := keyed.Rand(seed, keyed.Coins)
	perm := rng.Perm(k)
	missing := rng.Intn(k)
	for r, tok := range perm {
		if tok == missing {
			return float64(r + 1)
		}
	}
	return float64(k)
}

// EndgameCodedDecodes verifies the coded side of E9 deterministically:
// B, holding all tokens but one, decodes from a single XOR of all k.
// It is used by tests and the quickstart example.
func EndgameCodedDecodes(k, d int, seed int64) bool {
	rng := keyed.Rand(seed, keyed.Payloads)
	span := rlnc.NewSpan(k, d)
	all := gf.NewBitVec(k + d)
	missing := rng.Intn(k)
	for i := 0; i < k; i++ {
		c := rlnc.Encode(i, k, gf.RandomBitVec(d, rng.Uint64))
		all.Xor(c.Vec)
		if i != missing {
			span.Add(c)
		}
	}
	span.Add(rlnc.Coded{K: k, Vec: all})
	return span.CanDecode()
}
