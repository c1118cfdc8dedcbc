package exp

import (
	"repro/internal/adversary"
	"repro/internal/central"
	"repro/internal/sim"
)

// E10 measures the Corollary 2.6 centralized algorithm: with b = d
// (messages exactly one token wide, no room for coefficient headers)
// dissemination of n tokens completes in O(n) rounds, a regime in which
// Theorem 2.2 proves no token-forwarding algorithm — even centralized —
// can be linear-time. A trial counts rounds until every node decodes.
func E10(cfg Config) (*sim.Table, error) {
	ns := []int{16, 32, 64, 128}
	if cfg.Quick {
		ns = []int{16, 32, 64}
	}
	const d = 8
	t := &sim.Table{
		Caption: "E10: centralized coding with b = d = 8 (Corollary 2.6)",
		Header:  []string{"n=k", "rounds(mean)", "rounds/n", "message bits"},
	}
	var xs, ys []float64
	for _, n := range ns {
		n := n
		got, err := cfg.sweep(cfg.trials(), func(seed int64) (float64, error) {
			r, err := central.Run(n, n, d, adversary.NewRandomConnected(n, n/2, seed), seed)
			return float64(r), err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.I(n), sim.F(got.Mean), sim.F(got.Mean/float64(n)), sim.I(d))
		xs = append(xs, float64(n))
		ys = append(ys, got.Mean)
	}
	slope, err := sim.FitLogLogSlope(xs, ys)
	if err != nil {
		return nil, err
	}
	t.AddNote("slope vs n = %.2f (Cor 2.6 predicts 1.0: order-optimal Theta(n))", slope)
	t.AddNote("rounds equal E1's random column: the same coding and coins, with the coefficient header out of band")
	t.AddNote("distributed coding needs k + d bits per message; forwarding is Omega(n log k) here (Thm 2.2)")
	return t, nil
}
