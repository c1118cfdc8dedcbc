package stream

import (
	"context"

	"repro/internal/cluster"
)

// RunSingle runs ONE node of an N-node streaming run over the caller's
// Transport: the cmd/node process body for -mode stream (see
// cluster.Engine.RunSingle for what of cfg applies). The other N-1
// nodes are separate processes; every process must agree on N, K,
// PayloadBits, Window, Generations and Seed so the independently
// derived Sources line up. The node sources its share of every window
// generation, gossips coded packets and watermark acks until it has
// delivered the whole stream in order (each delivery verified against
// the Source), keeps emitting for the linger window so peers can
// finish, and returns its metrics. A timeout or cancellation before
// completion returns Done == false and a nil error; the error reports
// misconfiguration or delivery verification failure.
func RunSingle(ctx context.Context, cfg Config, s cluster.Single) (NodeMetrics, error) {
	var m NodeMetrics
	eng, err := cfg.engine(func(int) *NodeMetrics { return &m })
	if err != nil {
		return m, err
	}
	err = eng.RunSingle(ctx, cfg.runtime(), s)
	return m, err
}
