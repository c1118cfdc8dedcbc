package exp

import (
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// gossipTrial is one seeded data point of the coded-vs-forwarding
// experiments (E11, E13, E14): the same token set pushed through the
// lockstep cluster runtime in both gossip modes over identically-seeded
// fault layers. Summed over a cell's trials by sumTrials.
type gossipTrial struct {
	codedTicks, fwdTicks float64
	codedBits, fwdBits   float64
	dropped              int64
}

// lockstep completes a runtime trial's flags with what every trial
// shares: fanout 2 and the lockstep driver on one shard, whose runs are
// a pure function of the seed, as the parallel trial engine needs.
func lockstep(g cliutil.GossipFlags) cliutil.GossipFlags {
	g.Fanout, g.Transport, g.Shards = 2, "lockstep", 1
	return g
}

// runGossipTrial runs both modes of the run g describes — a command
// line of cmd/cluster, lowered by the CLIs' own GossipFlags.Open — over
// the token set g's seed draws. setting names the cell in the
// incomplete-run error.
func runGossipTrial(cfg Config, g cliutil.GossipFlags, setting string) (gossipTrial, error) {
	g = lockstep(g)
	toks := g.Tokens()
	var tr gossipTrial
	for _, mode := range []cluster.Mode{cluster.Coded, cluster.Forward} {
		rc, err := g.Open(nil)
		if err != nil {
			return tr, err
		}
		rc.Mode = mode
		res, err := cluster.Run(cfg.ctx(), rc, toks)
		if err != nil {
			return tr, err
		}
		if !res.Completed {
			return tr, fmt.Errorf("exp: %v gossip incomplete %s after %d ticks (seed %d)", mode, setting, res.Ticks, g.Seed)
		}
		tr.dropped += res.Dropped
		if mode == cluster.Coded {
			tr.codedTicks, tr.codedBits = float64(res.Ticks), float64(res.BitsOut)
		} else {
			tr.fwdTicks, tr.fwdBits = float64(res.Ticks), float64(res.BitsOut)
		}
	}
	return tr, nil
}

// sumTrials adds up a cell's trials.
func sumTrials(trials []gossipTrial) (g gossipTrial) {
	for _, tr := range trials {
		g.codedTicks += tr.codedTicks
		g.fwdTicks += tr.fwdTicks
		g.codedBits += tr.codedBits
		g.fwdBits += tr.fwdBits
	}
	return g
}

// E11 compares coded gossip against store-and-forward gossip across
// packet loss rates on the cluster runtime's lockstep driver. It is the
// paper's core separation (Thm 2.3 vs 2.1) restated as push gossip over
// a lossy wire:
// a forwarding node must collect k distinct tokens from random pushes —
// a coupon-collector tail that loss stretches further — while a coded
// node only needs k innovative packets, and under recoding almost every
// surviving packet is innovative. The fwd/coded tick ratio should be
// well above 1 and not shrink as loss grows; coded should also win on
// total protocol bits despite its k-bit coefficient headers.
func E11(cfg Config) (*sim.Table, error) {
	n, k, d := 24, 24, 64
	losses := []float64{0, 0.2, 0.4, 0.6}
	if cfg.Quick {
		n, k = 12, 12
		losses = []float64{0, 0.4}
	}
	t := &sim.Table{
		Caption: fmt.Sprintf("E11: coded vs store-and-forward gossip under loss (lockstep cluster, n=%d, k=%d, d=%d)", n, k, d),
		Header:  []string{"loss", "coded(ticks)", "fwd(ticks)", "fwd/coded", "coded(Mbit)", "fwd(Mbit)"},
	}
	var ratios []float64
	for _, loss := range losses {
		loss := loss
		trials, err := sweepSeeded(cfg, cfg.trials(), func(seed int64) (gossipTrial, error) {
			g := cliutil.GossipFlags{N: n, K: k, Payload: d, Loss: loss, Seed: seed, MaxTicks: 100000}
			tr, err := runGossipTrial(cfg, g, fmt.Sprintf("at loss %.2f", loss))
			if err == nil && loss == 0 && tr.dropped != 0 {
				// The inbox is sized so lockstep cannot overflow; a drop on
				// the lossless row would silently skew the baseline.
				err = fmt.Errorf("exp: %d drops on the lossless row (seed %d)", tr.dropped, seed)
			}
			return tr, err
		})
		if err != nil {
			return nil, err
		}
		g := sumTrials(trials)
		m := float64(len(trials))
		ratio := g.fwdTicks / g.codedTicks
		ratios = append(ratios, ratio)
		t.AddRow(fmt.Sprintf("%.1f", loss), sim.F(g.codedTicks/m), sim.F(g.fwdTicks/m),
			sim.F(ratio), sim.F(g.codedBits/m/1e6), sim.F(g.fwdBits/m/1e6))
	}
	first, last := ratios[0], ratios[len(ratios)-1]
	// The claim is a clear separation that loss does not erode: the
	// ratio at the highest loss must stay well above 1 (2x leaves slack
	// under trial noise; the measured value is ~5x) and must not have
	// collapsed relative to the lossless ratio.
	verdict := "PASS"
	if last < 2 || last < 0.5*first {
		verdict = "FAIL"
	}
	t.AddNote("fwd/coded ticks: %.2f at loss %.1f -> %.2f at loss %.1f (require >= 2x and no collapse vs lossless: %s)",
		first, losses[0], last, losses[len(losses)-1], verdict)
	t.AddNote("coded needs ~k innovative packets per node; forwarding pays the coupon-collector tail, compounded by loss")
	return t, nil
}
