package stream

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// SingleConfig parameterizes one node of a multi-process streaming run:
// the cmd/node process body for -mode stream. The other N-1 nodes are
// separate processes reachable only through the Transport; every
// process must agree on N, K, PayloadBits, Window, Generations and
// Seed so the independently derived Sources line up.
type SingleConfig struct {
	// ID is this node's id in [0, N).
	ID int
	// N is the cluster size (the origin rotation modulus).
	N int
	// K is the generation size in tokens.
	K int
	// PayloadBits is the token payload size d.
	PayloadBits int
	// Window is the maximum number of concurrent generations (default 4).
	Window int
	// Generations is the stream length for this run.
	Generations int
	// Fanout is the number of peers contacted per data emission
	// (default 2).
	Fanout int
	// Seed derives the node's randomness and the default Source.
	Seed int64
	// Source feeds the stream; nil means NewSeededSource(K, PayloadBits,
	// Seed) — which every process derives identically from the seed.
	Source Source
	// Transport carries the packets (required). RunSingle does NOT close
	// it: it is the process's socket, owned by the caller.
	Transport cluster.Transport
	// Known optionally gates peer sampling on routability. Nil falls
	// back to the Transport's own cluster.AddressedTransport.Known when
	// it has one, else sampling is ungated.
	Known func(id int) bool
	// Deliver observes decoded generations (optional).
	Deliver DeliverFunc
	// Interval paces ticker emissions (default 500µs).
	Interval time.Duration
	// Timeout caps the whole run including linger (default 30s).
	Timeout time.Duration
	// Linger keeps the node gossiping after its own completion so
	// slower peers can finish too (default 2s).
	Linger time.Duration
	// Telemetry optionally traces this node's run (nil = disabled). In
	// the multi-process shape each process records only its own id's
	// ring.
	Telemetry *telemetry.Recorder
}

// config lowers the protocol's parameters onto the shared Config so
// validation, newNode and the node methods see exactly the in-process
// shape (churnless, async clocking).
func (c SingleConfig) config() Config {
	return Config{
		N:           c.N,
		K:           c.K,
		PayloadBits: c.PayloadBits,
		Window:      c.Window,
		Generations: c.Generations,
		Fanout:      c.Fanout,
		Seed:        c.Seed,
		Source:      c.Source,
		Deliver:     c.Deliver,
	}
}

// RunSingle runs ONE node of an N-node streaming run over the caller's
// Transport: it sources its share of every window generation, gossips
// coded packets and watermark acks until it has delivered the whole
// stream in order (each delivery verified against the Source), keeps
// emitting for the linger window so peers can finish, and returns the
// node's metrics. A timeout or cancellation before completion returns
// Done == false and a nil error; the error reports misconfiguration or
// delivery verification failure.
func RunSingle(ctx context.Context, cfg SingleConfig) (NodeMetrics, error) {
	var m NodeMetrics
	lowered := cfg.config()
	if err := lowered.validate(); err != nil {
		return m, err
	}
	if cfg.ID < 0 || cfg.ID >= cfg.N {
		return m, fmt.Errorf("stream: node id %d outside [0, %d)", cfg.ID, cfg.N)
	}
	if cfg.Transport == nil {
		return m, fmt.Errorf("stream: RunSingle needs a Transport (the process's socket)")
	}
	eng, err := lowered.engine(func(int) *NodeMetrics { return &m })
	if err != nil {
		return m, err
	}
	err = eng.RunSingle(ctx, cluster.SingleConfig{
		ID: cfg.ID, N: cfg.N, Fanout: cfg.Fanout, Seed: cfg.Seed,
		Transport: cfg.Transport, Known: cfg.Known,
		Interval: cfg.Interval, Timeout: cfg.Timeout, Linger: cfg.Linger,
		Telemetry: cfg.Telemetry,
	})
	return m, err
}
