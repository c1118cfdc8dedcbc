package stream

import (
	"context"

	"repro/internal/cluster"
)

// SweepParams is one lockstep measurement point for the performance
// observatory (cmd/repobench), mirroring cluster.SweepParams with the
// streaming axes (window, stream length) added.
type SweepParams struct {
	N, K, PayloadBits, Window, Generations, Fanout int
	Loss                                           float64
	Churn                                          *cluster.ChurnSchedule
	Seed                                           int64
	// MaxTicks caps the run (default 500000, matching the stream
	// benchmarks).
	MaxTicks int
	// Shards is the sharded-lockstep worker count (0/1 = serial engine).
	// Transcripts are shard-count invariant, so this is a pure
	// performance axis.
	Shards int
}

// SweepRun executes one deterministic lockstep streaming run for a
// sweep point and returns its Result — a pure function of the params,
// like cluster.SweepRun.
func SweepRun(p SweepParams) (*Result, error) {
	maxN := p.N + p.Churn.Joins()
	var tr cluster.Transport = cluster.NewChanTransport(maxN, DefaultInboxBuffer(maxN, p.Fanout+1))
	if p.Loss > 0 {
		tr = cluster.WithLoss(tr, p.Loss, p.Seed+103)
	}
	maxTicks := p.MaxTicks
	if maxTicks == 0 {
		maxTicks = 500000
	}
	return Run(context.Background(), Config{
		N: p.N, K: p.K, PayloadBits: p.PayloadBits, Window: p.Window,
		Generations: p.Generations, Fanout: p.Fanout, Seed: p.Seed,
		Transport: tr, Lockstep: true, Shards: p.Shards,
		MaxTicks: maxTicks, Churn: p.Churn,
	})
}
