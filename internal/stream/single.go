package stream

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/wire"
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

func (c SingleConfig) fanout() int {
	if c.Fanout > 0 {
		return c.Fanout
	}
	return 2
}

func (c SingleConfig) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 4
}

func (c SingleConfig) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 500 * time.Microsecond
}

func (c SingleConfig) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

func (c SingleConfig) linger() time.Duration {
	if c.Linger > 0 {
		return c.Linger
	}
	return 2 * time.Second
}

// config lowers the single-node parameters onto the shared Config so
// newNode and the node methods see exactly the in-process shape
// (churnless, async clocking).
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
		Interval:    c.Interval,
		Timeout:     c.Timeout,
		Telemetry:   c.Telemetry,
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
	switch {
	case cfg.N < 1:
		return m, fmt.Errorf("stream: need at least 1 node, got %d", cfg.N)
	case cfg.ID < 0 || cfg.ID >= cfg.N:
		return m, fmt.Errorf("stream: node id %d outside [0, %d)", cfg.ID, cfg.N)
	case cfg.K < 1:
		return m, fmt.Errorf("stream: need at least 1 token per generation, got %d", cfg.K)
	case cfg.PayloadBits < 1:
		return m, fmt.Errorf("stream: need at least 1 payload bit, got %d", cfg.PayloadBits)
	case cfg.Generations < 1:
		return m, fmt.Errorf("stream: need at least 1 generation, got %d", cfg.Generations)
	case uint64(cfg.Generations) > wire.MaxEpoch:
		return m, fmt.Errorf("stream: %d generations exceed the 32-bit wire epoch space (%d)", cfg.Generations, uint64(wire.MaxEpoch))
	case cfg.Window < 0:
		return m, fmt.Errorf("stream: negative window %d", cfg.Window)
	case cfg.Fanout < 0:
		return m, fmt.Errorf("stream: negative fanout %d", cfg.Fanout)
	case cfg.Transport == nil:
		return m, fmt.Errorf("stream: RunSingle needs a Transport (the process's socket)")
	}
	lowered := cfg.config()
	src := lowered.source()
	if toks := src.Generation(0); len(toks) != cfg.K {
		return m, fmt.Errorf("stream: source produced %d tokens per generation, want K=%d", len(toks), cfg.K)
	}

	live := make([]bool, cfg.N)
	for i := range live {
		live[i] = true
	}
	nd := newNode(cfg.ID, lowered, src, &m, cluster.NewContacts(live, cfg.N), 0, false)
	nd.known = cfg.Known
	if nd.known == nil {
		if at, ok := cfg.Transport.(cluster.AddressedTransport); ok {
			nd.known = at.Known
		}
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.timeout())
	defer cancel()

	start := time.Now()
	tick := func() { nd.now = int64(time.Since(start)) }
	markDone := func() bool {
		if !m.Done && nd.done() {
			m.Done = true
			m.DoneAt = time.Since(start)
		}
		return m.Done
	}

	nd.prime()
	if nd.err != nil {
		return m, nd.err
	}
	var lingerC <-chan time.Time
	startLinger := func() {
		lt := time.NewTimer(cfg.linger())
		lingerC = lt.C
	}
	if markDone() { // n == 1, or a window the node sources alone
		startLinger()
	}

	tr := cfg.Transport
	inbox := tr.Recv(cfg.ID)
	ticker := time.NewTicker(cfg.interval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return m, nil
		case <-lingerC:
			return m, nil
		case raw := <-inbox:
			tick()
			if nd.recv(raw) {
				if nd.err != nil {
					return m, nd.err
				}
				if markDone() && lingerC == nil {
					startLinger()
				}
				nd.pushData(tr)
			}
		case <-ticker.C:
			tick()
			nd.sample(tr)
			nd.pushData(tr)
			nd.pushAck(tr)
		}
	}
}
