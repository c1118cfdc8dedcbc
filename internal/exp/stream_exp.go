package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stream"
)

// streamTrial is one seeded E12 data point: the same generation stream
// pushed through the lockstep streaming runtime at one window size over
// an identically-seeded lossy transport.
type streamTrial struct {
	ticks    float64
	bits     float64
	spanPeak float64
}

// runStreamTrial streams gens generations of k tokens across n nodes at
// window w. Lockstep mode makes the run a pure function of its seed, so
// E12 rides the deterministic parallel trial engine like E11.
func runStreamTrial(cfg Config, n, k, d, gens, w int, loss float64, seed int64) (streamTrial, error) {
	const fanout = 2
	rc := stream.Config{
		N: n, K: k, PayloadBits: d, Window: w, Generations: gens, Fanout: fanout,
		Seed: seed, Lockstep: true, MaxTicks: 500000,
	}
	rc.Transport = cluster.WithLoss(rc.DefaultTransport(), loss, seed)
	res, err := stream.Run(cfg.ctx(), rc)
	if err != nil {
		return streamTrial{}, err
	}
	if !res.Completed {
		return streamTrial{}, fmt.Errorf("exp: stream W=%d incomplete after %d ticks (loss %.2f, seed %d)", w, res.Ticks, loss, seed)
	}
	return streamTrial{
		ticks:    float64(res.Ticks),
		bits:     float64(res.BitsOut),
		spanPeak: float64(res.MaxSpanBytes),
	}, nil
}

// E12 measures what pipelining buys: the same token stream disseminated
// with a sliding window of W concurrent generations versus sequential
// one-generation-at-a-time dissemination (W = 1), across loss rates.
// The paper's perfect-pipelining claim is that RLNC keeps new
// information flowing while old tokens are still spreading; sequential
// dissemination forfeits exactly that, paying a dead interval per
// generation (the straggler tail plus an ack round-trip before the next
// generation may start) that a W >= 2 window overlaps with useful
// traffic. Sustained throughput — stream tokens delivered per tick — must
// therefore be strictly higher for every pipelined window than for the
// sequential baseline, and the gap must survive loss, which lengthens
// precisely the straggler tails that pipelining hides.
func E12(cfg Config) (*sim.Table, error) {
	n, k, d, gens := 16, 8, 64, 8
	windows := []int{1, 2, 4, 8}
	losses := []float64{0, 0.2, 0.4}
	if cfg.Quick {
		n, k, gens = 8, 4, 4
		windows = []int{1, 4}
		losses = []float64{0, 0.2}
	}
	t := &sim.Table{
		Caption: fmt.Sprintf("E12: pipelined windows vs sequential streaming under loss (lockstep stream, n=%d, k=%d, d=%d, %d generations)", n, k, d, gens),
		Header:  []string{"loss", "window", "ticks", "tok/tick", "vs W=1", "Kbit/token", "peak span B"},
	}
	tokens := float64(k * gens)
	pass := true
	for _, loss := range losses {
		var seqTput float64
		for _, w := range windows {
			loss, w := loss, w
			trials, err := sweepSeeded(cfg, cfg.trials(), func(seed int64) (streamTrial, error) {
				return runStreamTrial(cfg, n, k, d, gens, w, loss, cfg.Seed+seed)
			})
			if err != nil {
				return nil, err
			}
			var s streamTrial
			for _, tr := range trials {
				s.ticks += tr.ticks
				s.bits += tr.bits
				s.spanPeak += tr.spanPeak
			}
			m := float64(len(trials))
			tput := tokens / (s.ticks / m)
			if w == 1 {
				seqTput = tput
			} else if loss >= 0.2 && tput <= seqTput {
				pass = false
			}
			// Kbit/token charges the protocol bits spent getting each
			// stream token to all n nodes.
			t.AddRow(fmt.Sprintf("%.1f", loss), sim.I(w), sim.F(s.ticks/m), sim.F(tput),
				sim.F(tput/seqTput), sim.F(s.bits/m/tokens/1e3), sim.F(s.spanPeak/m))
		}
	}
	verdict := "PASS"
	if !pass {
		verdict = "FAIL"
	}
	t.AddNote("require: every pipelined window (W >= 2) sustains strictly higher tok/tick than sequential W=1 at loss >= 0.2: %s", verdict)
	t.AddNote("W=1 pays a dead interval per generation (straggler tail + ack propagation); a window overlaps it with the next generations' traffic")
	return t, nil
}
