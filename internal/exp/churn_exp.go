package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stream"
)

// joinerTrial is one seeded stream data point for E13's catch-up
// claim: a node joins mid-stream and must reach the cluster watermark.
type joinerTrial struct {
	catchUp  float64 // ticks from join to first delivery
	startGen float64 // frontier learned at join
}

// runStreamJoinerTrial streams gens generations while one node joins
// mid-run, and reports how long the joiner took to catch up to the
// watermark it learned from gossip.
func runStreamJoinerTrial(cfg Config, loss float64, seed int64) (joinerTrial, error) {
	const n, k, d, gens, w, joinAt = 12, 6, 64, 10, 4, 30
	sched, err := cluster.ParseChurn(fmt.Sprintf("join:%d:1", joinAt))
	if err != nil {
		return joinerTrial{}, err
	}
	rc := stream.Config{
		N: n, K: k, PayloadBits: d, Window: w, Generations: gens, Fanout: 2,
		Seed: seed, Lockstep: true, MaxTicks: 500000,
		Churn: sched, SuspectTicks: 12,
	}
	rc.Transport = cluster.WithLoss(rc.DefaultTransport(), loss, seed)
	res, err := stream.Run(cfg.ctx(), rc)
	if err != nil {
		return joinerTrial{}, err
	}
	if !res.Completed {
		return joinerTrial{}, fmt.Errorf("exp: joiner stream incomplete after %d ticks (loss %.2f, seed %d)", res.Ticks, loss, seed)
	}
	j := res.Nodes[n]
	if !j.Done || j.CaughtUpTick < j.JoinTick {
		return joinerTrial{}, fmt.Errorf("exp: joiner did not catch up (done %v, caught up %d, joined %d, seed %d)",
			j.Done, j.CaughtUpTick, j.JoinTick, seed)
	}
	return joinerTrial{catchUp: float64(j.CaughtUpTick - j.JoinTick), startGen: float64(j.StartGen)}, nil
}

// E13 measures dissemination under churn: the adversary no longer just
// rewires the topology every round (the paper's model, E1–E10) or
// drops packets (E11/E12) — it now removes and adds the *nodes
// themselves* mid-run, the dynamic-participation setting the
// cluster/stream membership subsystem exists for. Coded gossip should
// keep its E11 separation over store-and-forward under every churn
// rate × loss cell: a joiner needs any k innovative packets while a
// forwarding joiner pays the full coupon-collector tail from zero, and
// crash victims cost coded gossip only rank (any recoded packet
// replaces it) while forwarding must re-collect the victim's exact
// unspread tokens. The streaming runtime's mid-stream joiner must
// additionally reach the cluster watermark it learned from gossip —
// the catch-up figures land in the notes.
func E13(cfg Config) (*sim.Table, error) {
	n, k, d := 16, 16, 64
	schedules := []struct{ name, spec string }{
		{"none", ""},
		{"light", "crash:10:1,join:14:1"},
		{"heavy", "crash:8:1,join:10:2,leave:16:1,restart:22:1"},
	}
	losses := []float64{0, 0.2}
	if cfg.Quick {
		n, k = 10, 10
		schedules = schedules[:2]
		losses = []float64{0.2}
	}
	t := &sim.Table{
		Caption: fmt.Sprintf("E13: coded vs store-and-forward gossip under churn × loss (lockstep cluster, n=%d, k=%d, d=%d)", n, k, d),
		Header:  []string{"churn", "loss", "coded(ticks)", "fwd(ticks)", "fwd/coded"},
	}
	minRatio := -1.0
	for _, schedule := range schedules {
		for _, loss := range losses {
			schedule, loss := schedule, loss
			// Victim selection, joins and every coin derive from the seed.
			trials, err := sweepSeeded(cfg, cfg.trials(), func(seed int64) (gossipTrial, error) {
				sched, err := cluster.ParseChurn(schedule.spec)
				if err != nil {
					return gossipTrial{}, err
				}
				rc := cluster.Config{N: n, Seed: cfg.Seed + seed, MaxTicks: 200000, Churn: sched}
				return runGossipTrial(cfg, rc, k, d, fmt.Sprintf("under churn %q at loss %.2f", schedule.spec, loss),
					func(rc *cluster.Config) { rc.Transport = lossy(rc, loss) })
			})
			if err != nil {
				return nil, err
			}
			g := sumTrials(trials)
			m := float64(len(trials))
			ratio := g.fwdTicks / g.codedTicks
			if minRatio < 0 || ratio < minRatio {
				minRatio = ratio
			}
			t.AddRow(schedule.name, fmt.Sprintf("%.1f", loss), sim.F(g.codedTicks/m), sim.F(g.fwdTicks/m), sim.F(ratio))
		}
	}
	// Stream joiner catch-up at the same loss points.
	for _, loss := range losses {
		loss := loss
		trials, err := sweepSeeded(cfg, cfg.trials(), func(seed int64) (joinerTrial, error) {
			return runStreamJoinerTrial(cfg, loss, cfg.Seed+seed)
		})
		if err != nil {
			return nil, err
		}
		var sumCatch, sumStart float64
		for _, tr := range trials {
			sumCatch += tr.catchUp
			sumStart += tr.startGen
		}
		m := float64(len(trials))
		t.AddNote("mid-stream joiner (stream runtime, n=12, k=6, 10 generations, join@tick 30, loss %.1f): learned frontier at gen %.1f, caught up to the cluster watermark in %.1f ticks (mean of %d trials)",
			loss, sumStart/m, sumCatch/m, len(trials))
	}
	verdict := "PASS"
	if minRatio < 2 {
		verdict = "FAIL"
	}
	t.AddNote("require: fwd/coded >= 2x in every churn × loss cell, every run complete with all live nodes verified, every joiner caught up: %s (min ratio %.2f)", verdict, minRatio)
	for _, schedule := range schedules[1:] {
		t.AddNote("churn %q = %q (kind:tick:count grammar)", schedule.name, schedule.spec)
	}
	return t, nil
}
