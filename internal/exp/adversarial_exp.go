package exp

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/hostile"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// e14Mutations is the hostile-packet cell's mutation mix: every op in
// the internal/hostile arsenal at rates that keep the run decodable
// while exercising each rejection/absorption path. The same spec backs
// the CI adversarial-smoke job.
var e14Mutations = hostile.MutationSpec{Dup: 0.05, Stale: 0.05, Trunc: 0.03, Flip: 0.02, Xgen: 0.03}

// runAdversarialTrial runs coded and forwarding gossip through one
// cell. Both modes face the same loss, the same targeted-crash
// schedule, identically-seeded packet mutations, and the same adversary
// construction — though the adaptive adversary reacts to each run's own
// telemetry, which is the point: it reads per-node decoding rank every
// tick and serves the rank-sorted path, so whatever the protocol
// achieves shapes what the topology permits next.
func runAdversarialTrial(cfg Config, n, k, d int, adaptive, hostilePkts bool, seed int64) (gossipTrial, error) {
	sched, err := cluster.ParseChurn("crashmax:40:1,restart:90:1")
	if err != nil {
		return gossipTrial{}, err
	}
	rc := cluster.Config{N: n, Seed: seed, MaxTicks: 500000, Churn: sched}
	setting := fmt.Sprintf("under adversarial dynamics (adaptive %v, hostile %v)", adaptive, hostilePkts)
	return runGossipTrial(cfg, rc, k, d, setting, func(rc *cluster.Config) {
		// The recorder exists in every cell, not just the adaptive ones:
		// it is the adaptive adversary's rank oracle, and keeping it in
		// the benign cells too means the cells differ only in the faults
		// injected, never in the instrumentation.
		rec := telemetry.New(telemetry.Config{Nodes: n})
		rc.Telemetry = rec
		tr := lossy(rc, 0.1)
		if hostilePkts {
			tr = hostile.WithMutator(tr, e14Mutations, seed, rec)
		}
		var adv dynnet.Adversary
		if adaptive {
			adv = hostile.NewAdaptive(n, seed, rec)
		} else {
			adv = adversary.NewRandomConnected(n, n/2, seed+104)
		}
		rc.Transport = hostile.WithAdversary(tr, adv, hostile.TopoConfig{Telemetry: rec})
	})
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
	cells := []struct {
		dynamics string
		packets  string
		adaptive bool
		hostile  bool
	}{
		{"random", "benign", false, false},
		{"random", "hostile", false, true},
		{"adaptive", "benign", true, false},
		{"adaptive", "hostile", true, true},
	}
	t := &sim.Table{
		Caption: fmt.Sprintf("E14: coded vs store-and-forward gossip under adversarial dynamics × hostile packets (lockstep cluster, n=%d, k=%d, d=%d, loss=0.1, churn crashmax+restart)", n, k, d),
		Header:  []string{"dynamics", "packets", "coded(ticks)", "fwd(ticks)", "fwd/coded"},
	}
	ratios := map[string]float64{}
	for _, cell := range cells {
		cell := cell
		trials, err := sweepSeeded(cfg, cfg.trials(), func(seed int64) (gossipTrial, error) {
			return runAdversarialTrial(cfg, n, k, d, cell.adaptive, cell.hostile, cfg.Seed+seed)
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
	t.AddNote("hostile packet mix: %s (per-Send rates; stale replays draw from a seeded reservoir of genuinely sent packets)", e14Mutations.String())
	t.AddNote("every run decode-verified on completion; crashmax kills the highest-rank live node, restart revives it")
	return t, nil
}
