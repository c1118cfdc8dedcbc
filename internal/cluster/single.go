package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/token"
)

// AddressedTransport is implemented by transports that route by an
// address book (udpnet) rather than a node-indexed table, and can
// therefore say which peers are reachable right now. RunSingle uses it
// to gate peer sampling so emissions are not burned on peers whose
// address is still unknown. Middleware decorators embed the Transport
// interface and so hide this method; callers wrapping an addressed
// transport in middlewares should pass SingleConfig.Known explicitly.
type AddressedTransport interface {
	Transport
	// Known reports whether the transport can currently route to id.
	Known(id int) bool
}

// SingleConfig parameterizes one node of a multi-process cluster run.
// Unlike Config there is no driver to spawn peers: the other N-1 nodes
// are separate processes reachable only through the Transport.
type SingleConfig struct {
	// ID is this node's id in [0, N).
	ID int
	// N is the cluster size; token i is seeded at node i mod N, so every
	// process must agree on N and on the token set (derived from the
	// shared seed) for dissemination to verify.
	N int
	// Fanout is the number of peers contacted per emission (default 2).
	Fanout int
	// Mode selects coded or store-and-forward gossip.
	Mode Mode
	// Seed derives the node's randomness with the same per-id stream
	// derivation the in-process drivers use.
	Seed int64
	// Transport carries the packets (required). RunSingle does NOT close
	// it: in the multi-process shape the transport is the process's
	// socket, owned by the caller, and typically outlives the gossip run
	// (the linger phase and metric scraping still use its counters).
	Transport Transport
	// Known optionally gates peer sampling on routability. Nil falls
	// back to the Transport's own AddressedTransport.Known when it has
	// one, else sampling is ungated.
	Known func(id int) bool
	// Interval paces ticker emissions (default 500µs; multi-hundred
	// -process runs on few cores want this much larger).
	Interval time.Duration
	// Timeout caps the whole run including linger (default 30s).
	Timeout time.Duration
	// Linger keeps the node gossiping after its own completion so that
	// slower peers still receive combinations — the multi-process
	// equivalent of the in-process run ending only when every node is
	// done (default 2s; the launcher usually kills lingering nodes once
	// all have reported DONE).
	Linger time.Duration
	// Telemetry optionally traces this node's run (nil = disabled). In
	// the multi-process shape each process records only its own id's
	// ring; per-node storage stays lazily allocated for the rest of the
	// id space.
	Telemetry *telemetry.Recorder
}

// RunSingle runs ONE node of an N-node cluster dissemination: the
// cmd/node process body. It seeds the node's stride-N share of toks,
// gossips over cfg.Transport until the node holds all of them (then
// verifies the decoded tokens against the originals), keeps emitting
// for the linger window so peers can finish too, and returns the
// node's metrics. A timeout or context cancellation before completion
// returns with Done == false and a nil error — the caller decides
// whether an incomplete run is a failure. The returned error is
// reserved for misconfiguration and verification failures.
func RunSingle(ctx context.Context, cfg SingleConfig, toks []token.Token) (NodeMetrics, error) {
	var m NodeMetrics
	if cfg.N < 1 {
		return m, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.N)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.N {
		return m, fmt.Errorf("cluster: node id %d outside [0, %d)", cfg.ID, cfg.N)
	}
	if err := validate(cfg.Mode, toks); err != nil {
		return m, err
	}
	if cfg.Transport == nil {
		return m, fmt.Errorf("cluster: RunSingle needs a Transport (the process's socket)")
	}
	err := oneShotEngine(cfg.Mode, cfg.N, toks, func(int) *NodeMetrics { return &m }).RunSingle(ctx, cfg)
	return m, err
}
