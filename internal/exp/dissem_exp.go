package exp

import (
	"math"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/dissem"
	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/sim"
	"repro/internal/token"
)

// nTokens is the instance E2–E4 sweep: n tokens of d bits, one per node,
// against the random connected adversary, both rebuilt from the trial's
// seed.
func (c Config) nTokens(n, d int, seed int64) (token.Distribution, dynnet.Adversary) {
	return token.OnePerNode(n, d, rand.New(rand.NewSource(c.Seed+seed))),
		adversary.NewRandomConnected(n, n/2, c.Seed+seed)
}

// forwardTrial is one run of the Theorem 2.1 pipelined-flooding baseline
// on the nTokens instance, in rounds.
func (c Config) forwardTrial(n, b, d int) sim.TrialFunc {
	return func(seed int64) (float64, error) {
		dist, adv := c.nTokens(n, d, seed)
		r, err := forwarding.RunPipelinedFlood(dist, n, b, d, adv)
		return float64(r), err
	}
}

// codedTrial is one run of a coded dissemination algorithm on the
// nTokens instance.
func (c Config) codedTrial(
	algo func(token.Distribution, dissem.Params, dynnet.Adversary) (dissem.Result, error),
	n, b, d int,
) func(seed int64) (dissem.Result, error) {
	return func(seed int64) (dissem.Result, error) {
		dist, adv := c.nTokens(n, d, seed)
		return algo(dist, dissem.Params{B: b, D: d, Seed: c.Seed + seed}, adv)
	}
}

// E2 sweeps n (with k = n, d = 8, fixed b) and compares the Theorem 2.1
// pipelined-flooding baseline against greedy-forward coding. The paper
// predicts the coding advantage grows with n once nk dominates the
// additive terms (for b = d = Theta(log n) the ratio is Theta(log n);
// at implementable message sizes the trend, not the constant, is the
// reproduction target).
func E2(cfg Config) (*sim.Table, error) {
	ns := []int{16, 32, 64, 128}
	if cfg.Quick {
		ns = []int{16, 32, 64}
	}
	const d, b = 8, 512
	t := &sim.Table{
		Caption: "E2: n-token dissemination, forwarding vs coding (d = 8, b = 512)",
		Header:  []string{"n=k", "forward", "coded(greedy)", "ratio"},
	}
	prevRatio := 0.0
	grew := true
	for i, n := range ns {
		fwd, err := cfg.sweep(cfg.trials(), cfg.forwardTrial(n, b, d))
		if err != nil {
			return nil, err
		}
		runs, err := sweepSeeded(cfg, cfg.trials(), cfg.codedTrial(dissem.GreedyForward, n, b, d))
		if err != nil {
			return nil, err
		}
		cod := sim.Summarize(roundsOf(runs))
		ratio := fwd.Mean / cod.Mean
		t.AddRow(sim.I(n), sim.F(fwd.Mean), sim.F(cod.Mean), sim.F(ratio))
		if i > 0 && ratio < prevRatio {
			grew = false
		}
		prevRatio = ratio
	}
	t.AddNote("coding advantage grows monotonically with n: %v (Thm 2.3 vs Thm 2.1)", grew)
	return t, nil
}

// E3 fixes n = k and sweeps the message budget b. Forwarding rounds must
// fall like 1/b (Theorem 2.1); coded rounds like 1/b^2 while the
// b^2-throughput term dominates (Theorem 2.3), flattening into the
// additive terms afterwards.
func E3(cfg Config) (*sim.Table, error) {
	n := 128
	bs := []int{96, 128, 192, 256, 384}
	if cfg.Quick {
		n = 64
		bs = []int{96, 128, 192, 256}
	}
	const d = 8
	t := &sim.Table{
		Caption: "E3: rounds vs message size b (n = k = " + sim.I(n) + ", d = 8)",
		Header:  []string{"b", "forward", "coded(greedy)", "coded iters"},
	}
	var xs, yf, yc []float64
	for _, b := range bs {
		fwd, err := cfg.sweep(cfg.trials(), cfg.forwardTrial(n, b, d))
		if err != nil {
			return nil, err
		}
		runs, err := sweepSeeded(cfg, cfg.trials(), cfg.codedTrial(dissem.GreedyForward, n, b, d))
		if err != nil {
			return nil, err
		}
		cod := sim.Summarize(roundsOf(runs))
		iters := runs[len(runs)-1].Iterations
		t.AddRow(sim.I(b), sim.F(fwd.Mean), sim.F(cod.Mean), sim.I(iters))
		xs = append(xs, float64(b))
		yf = append(yf, fwd.Mean)
		yc = append(yc, cod.Mean)
	}
	sf, err := sim.FitLogLogSlope(xs, yf)
	if err != nil {
		return nil, err
	}
	sc, err := sim.FitLogLogSlope(xs, yc)
	if err != nil {
		return nil, err
	}
	t.AddNote("forwarding slope vs b = %.2f (Thm 2.1 predicts -1)", sf)
	t.AddNote("coding slope vs b    = %.2f (Thm 2.3 predicts -2 until additive floor)", sc)
	return t, nil
}

// E4 compares greedy-forward and priority-forward in the large-b regime
// where gathering becomes the bottleneck (k < b^3/d). At laptop scale
// the crossover itself is asymptotic; the table reports both curves and
// each algorithm's iteration count so the trend toward priority's fewer
// iterations is visible.
func E4(cfg Config) (*sim.Table, error) {
	n := 96
	bs := []int{192, 256, 384, 512}
	if cfg.Quick {
		n = 48
		bs = []int{192, 256, 384}
	}
	const d = 8
	t := &sim.Table{
		Caption: "E4: greedy vs priority across b (n = k = " + sim.I(n) + ", d = 8)",
		Header:  []string{"b", "greedy", "greedy iters", "priority", "priority iters"},
	}
	for _, b := range bs {
		gRuns, err := sweepSeeded(cfg, cfg.trials(), cfg.codedTrial(dissem.GreedyForward, n, b, d))
		if err != nil {
			return nil, err
		}
		pRuns, err := sweepSeeded(cfg, cfg.trials(), cfg.codedTrial(dissem.PriorityForward, n, b, d))
		if err != nil {
			return nil, err
		}
		g, p := sim.Summarize(roundsOf(gRuns)), sim.Summarize(roundsOf(pRuns))
		gIters := gRuns[len(gRuns)-1].Iterations
		pIters := pRuns[len(pRuns)-1].Iterations
		t.AddRow(sim.I(b), sim.F(g.Mean), sim.I(gIters), sim.F(p.Mean), sim.I(pIters))
	}
	t.AddNote("Thm 7.3 vs 7.5: priority trades the +nb gathering tail for an indexing log factor;")
	t.AddNote("our priority selection floods 64-bit values naively (log-factor variant, see DESIGN.md)")
	return t, nil
}

// E6 measures the Lemma 7.2 gathering bound: after R = O(n) rounds of
// random-forward with c = b/d tokens per message, the identified node
// knows at least sqrt(c*k) tokens (or everything). The sweep includes
// short horizons (R = n/8) where gathering has not yet saturated at k,
// so the sqrt floor is exercised non-trivially, and the rotating-path
// adversary so no topology is ever reused.
func E6(cfg Config) (*sim.Table, error) {
	ns := []int{64, 128}
	if cfg.Quick {
		ns = []int{32, 64}
	}
	const d, c = 8, 2
	fractions := []struct {
		name string
		num  int
		den  int
	}{{"n/8", 1, 8}, {"n/2", 1, 2}, {"n", 1, 1}}
	t := &sim.Table{
		Caption: "E6: random-forward gathering vs Lemma 7.2's sqrt(bk/d) (c = 2, rotating path)",
		Header:  []string{"n=k", "rounds", "gathered(min)", "gathered(mean)", "bound sqrt(ck)", "ok"},
	}
	allOK := true
	for _, n := range ns {
		for _, fr := range fractions {
			n, fr := n, fr
			rounds := n * fr.num / fr.den
			got, err := cfg.sweep(cfg.trials(), func(seed int64) (float64, error) {
				rng := rand.New(rand.NewSource(cfg.Seed + seed))
				dist := token.OnePerNode(n, d, rng)
				sets := make([]*token.Set, n)
				rngs := make([]*rand.Rand, n)
				for i := range sets {
					sets[i] = token.NewSet()
					for _, tk := range dist[i] {
						sets[i].Add(tk)
					}
					rngs[i] = rand.New(rand.NewSource(cfg.Seed + seed + int64(i)*31 + 1))
				}
				s := dynnet.NewSession(n, adversary.NewRotatingPath(n, cfg.Seed+seed), dynnet.Config{})
				res, err := forwarding.RandomForward(s, sets, nil, c, rounds, rngs)
				if err != nil {
					return 0, err
				}
				return float64(res.Count), nil
			})
			if err != nil {
				return nil, err
			}
			bound := math.Sqrt(float64(c * n))
			minGather := got.Min
			ok := minGather >= bound
			if !ok {
				allOK = false
			}
			t.AddRow(sim.I(n), fr.name+"="+sim.I(rounds), sim.F(minGather), sim.F(got.Mean), sim.F(bound), boolStr(ok))
		}
	}
	t.AddNote("all configurations met the bound: %v (the lemma allows saturation at k)", allOK)
	return t, nil
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// roundsOf projects the Rounds field of seed-ordered dissemination runs
// for summarizing.
func roundsOf(rs []dissem.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.Rounds)
	}
	return out
}
