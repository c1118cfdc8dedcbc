package exp

import (
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/sim"
)

// e14Mutations is the hostile-packet cell's -mutate spec: every op in
// the internal/hostile arsenal at rates that keep the run decodable
// while exercising each rejection/absorption path. The same spec backs
// the CI adversarial-smoke job.
const e14Mutations = "dup:0.05,stale:0.05,trunc:0.03,flip:0.02,xgen:0.03"

// e14Cell is one E14 cell at one trial seed, as cmd/cluster's flags.
// Both modes face the same loss, the same targeted-crash schedule,
// identically-seeded packet mutations, and the same adversary
// construction — though the adaptive adversary reacts to each run's own
// telemetry, which is the point: it reads per-node decoding rank every
// tick and serves the rank-sorted path, so whatever the protocol
// achieves shapes what the topology permits next.
func e14Cell(n, k, d int, dynamics, packets string, seed int64) cliutil.GossipFlags {
	g := cliutil.GossipFlags{N: n, K: k, Payload: d, Loss: 0.1, Seed: seed, MaxTicks: 500000,
		Churn: "crashmax:40:1,restart:90:1", Adversary: dynamics}
	if packets == "hostile" {
		g.Mutate = e14Mutations
	}
	return g
}

// E14 caps the fault-injection suite: coded vs store-and-forward
// gossip under {random, adaptive-adversarial} topology dynamics ×
// {benign, hostile} packets, at equal loss and an equal targeted-crash
// schedule in every cell. The paper's central claim is that coding's
// advantage comes from making every packet fungible — the adversary
// cannot identify a "missing" token to suppress — so the margin over
// forwarding must WIDEN as the adversary sharpens: the adaptive
// adversary concentrates connectivity among equal-knowledge nodes and
// crashmax beheads the best-decoded node, both of which starve
// forwarding's coupon collection strictly more than coded gossip's
// any-k-innovative rank collection. Hostile packets (duplicates, stale
// replays, truncations, bit flips, cross-generation reordering) must
// shift absolute cost without erasing that separation.
func E14(cfg Config) (*sim.Table, error) {
	n, k, d := 16, 16, 64
	if cfg.Quick {
		n, k = 10, 8
	}
	cells := []struct{ dynamics, packets string }{
		{"random", "benign"},
		{"random", "hostile"},
		{"adaptive", "benign"},
		{"adaptive", "hostile"},
	}
	t := &sim.Table{
		Caption: fmt.Sprintf("E14: coded vs store-and-forward gossip under adversarial dynamics × hostile packets (lockstep cluster, n=%d, k=%d, d=%d, loss=0.1, churn crashmax+restart)", n, k, d),
		Header:  []string{"dynamics", "packets", "coded(ticks)", "fwd(ticks)", "fwd/coded"},
	}
	ratios := map[string]float64{}
	for _, cell := range cells {
		cell := cell
		trials, err := sweepSeeded(cfg, cfg.trials(), func(seed int64) (gossipTrial, error) {
			return runGossipTrial(cfg, e14Cell(n, k, d, cell.dynamics, cell.packets, seed),
				fmt.Sprintf("under %s dynamics with %s packets", cell.dynamics, cell.packets))
		})
		if err != nil {
			return nil, err
		}
		g := sumTrials(trials)
		m := float64(len(trials))
		ratio := g.fwdTicks / g.codedTicks
		ratios[cell.dynamics+"/"+cell.packets] = ratio
		t.AddRow(cell.dynamics, cell.packets, sim.F(g.codedTicks/m), sim.F(g.fwdTicks/m), sim.F(ratio))
	}
	verdict := "PASS"
	if ratios["adaptive/benign"] <= ratios["random/benign"] || ratios["adaptive/hostile"] <= ratios["random/hostile"] {
		verdict = "FAIL"
	}
	t.AddNote("require: fwd/coded strictly larger under adaptive than random dynamics at equal churn × loss, for benign and hostile packets alike: %s (benign %.2f -> %.2f, hostile %.2f -> %.2f)",
		verdict, ratios["random/benign"], ratios["adaptive/benign"], ratios["random/hostile"], ratios["adaptive/hostile"])
	t.AddNote("hostile packet mix: %s (per-Send rates; stale replays draw from a seeded reservoir of the sender's own past packets)", e14Mutations)
	t.AddNote("every run decode-verified on completion; crashmax kills the highest-rank live node, restart revives it")
	return t, nil
}
