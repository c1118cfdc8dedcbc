package cluster

import (
	"context"
	"math/rand"

	"repro/internal/token"
)

// SweepParams is one lockstep measurement point for the performance
// observatory (cmd/repobench): enough of Config to sweep the
// interesting axes, with the transport stack assembled internally so
// the sweeping tool and the CLIs cannot drift on middleware order or
// buffer sizing.
type SweepParams struct {
	N, K, PayloadBits, Fanout int
	Loss                      float64
	Churn                     *ChurnSchedule
	Seed                      int64
	// MaxTicks caps the run (default 200000 — sweeps visit hostile
	// corners the default one-shot cap is too tight for).
	MaxTicks int
	// Shards is the sharded-lockstep worker count (0/1 = serial engine).
	// Transcripts are shard-count invariant, so this is a pure
	// performance axis.
	Shards int
}

// SweepRun executes one deterministic lockstep cluster run for a sweep
// point and returns its Result. The run is a pure function of the
// params, so repeated sweeps at the same git revision append identical
// rows — curve differences between revisions are code, not noise.
func SweepRun(p SweepParams) (*Result, error) {
	maxN := p.N + p.Churn.Joins()
	var tr Transport = NewChanTransport(maxN, DefaultInboxBuffer(maxN, p.Fanout+1))
	if p.Loss > 0 {
		tr = WithLoss(tr, p.Loss, p.Seed+103)
	}
	maxTicks := p.MaxTicks
	if maxTicks == 0 {
		maxTicks = 200000
	}
	toks := token.RandomSet(p.K, p.PayloadBits, rand.New(rand.NewSource(p.Seed)))
	return Run(context.Background(), Config{
		N: p.N, Fanout: p.Fanout, Mode: Coded, Seed: p.Seed,
		Transport: tr, Lockstep: true, Shards: p.Shards,
		MaxTicks: maxTicks, Churn: p.Churn,
	}, toks)
}
