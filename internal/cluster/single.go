package cluster

import (
	"context"

	"repro/internal/token"
)

// AddressedTransport is implemented by transports that route by an
// address book (udpnet) rather than a node-indexed table, and can
// therefore say which peers are reachable right now. RunSingle uses it
// to gate peer sampling so emissions are not burned on peers whose
// address is still unknown, and finds it under a stack of middlewares
// through Layer.Unwrap.
type AddressedTransport interface {
	Transport
	// Known reports whether the transport can currently route to id.
	Known(id int) bool
}

// RunSingle runs ONE node of an N-node cluster dissemination: the
// cmd/node process body (see Engine.RunSingle for what of cfg applies).
// Token i is seeded at node i mod N, so every process must agree on N
// and on the token set (derived from the shared seed) for
// dissemination to verify. The node seeds its stride-N share of toks,
// gossips over cfg.Transport until it holds all of them (then verifies
// the decoded tokens against the originals), keeps emitting for the
// linger window so peers can finish too, and returns its metrics. A
// timeout or context cancellation before completion returns with Done
// == false and a nil error — the caller decides whether an incomplete
// run is a failure. The returned error is reserved for
// misconfiguration and verification failures.
func RunSingle(ctx context.Context, cfg Config, s Single, toks []token.Token) (NodeMetrics, error) {
	var m NodeMetrics
	if err := validate(cfg.Mode, toks); err != nil {
		return m, err
	}
	err := oneShotEngine(cfg.Mode, cfg.N, toks, func(int) *NodeMetrics { return &m }).RunSingle(ctx, cfg, s)
	return m, err
}
