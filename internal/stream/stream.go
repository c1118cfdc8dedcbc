// Package stream turns one-shot k-token dissemination into an
// unbounded, pipelined stream — the "perfect pipelining" behaviour the
// paper proves for RLNC gossip: new information keeps flowing while
// older tokens are still spreading.
//
// A Source feeds a token sequence that the layer chunks into
// generations of K tokens, keyed on the wire by wire.Envelope.Epoch.
// Each generation is one independent RLNC span (recoding happens within
// a generation, never across), and every node gossips a sliding window
// of at most Window concurrent generations: random nonzero span
// combinations of each active generation are pushed to Fanout random
// peers over a cluster.Transport, exactly as in internal/cluster.
//
// Control traffic is the wire.TypeAck body: each node gossips its
// delivery watermark (generations fully decoded and handed to the
// consumer, in order) together with its current view of every peer's
// watermark. Views merge by pointwise maximum, so the cluster-wide
// minimum watermark — the retirement frontier — converges at gossip
// speed. A generation below the frontier is globally decoded: its span
// is Reset, returned to a per-node pool, and the window slides forward,
// which is what bounds each node's memory to O(Window) spans no matter
// how long the stream runs.
//
// Decoded generations are delivered to Config.Deliver strictly in
// generation order per node, and every delivery is verified against the
// Source before the callback sees it.
//
// The package is a protocol, not a runtime: its node implements
// cluster.Protocol and runs on cluster.Engine's drivers — the async
// goroutine-per-node runtime (wall-clock metrics, context shutdown),
// the deterministic lockstep driver whose runs are a pure function of
// Config.Seed, and the one-process-per-node loop behind RunSingle (see
// DESIGN.md "Node runtime and drivers").
package stream

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/wire"
)

// Source produces the token stream, one generation of K tokens at a
// time. Generation must be a pure function of g: nodes fetch the same
// generation independently (origins inject their share, verifiers
// compare deliveries against it), and lockstep determinism relies on
// repeated calls agreeing. Implementations must be safe for concurrent
// use in async mode.
type Source interface {
	// Generation returns generation g's tokens. All payloads must have
	// the same bit length across every generation.
	Generation(g int) []token.Token
}

// seededSource derives generation g's tokens purely from (seed, g):
// token j of generation g has UID owner j, sequence g, and a random
// payload drawn from a generation-local PRNG.
//
// Because every node consults the source several times per generation
// (origins inject their share, verifiers check deliveries), the source
// memoizes a bounded window of recently built generations; entries are
// rebuilt on demand if evicted, so the cache is purely a hot-path
// allocation saver and never changes what Generation returns. Returned
// slices are shared and must be treated as immutable, which the
// stream's consumers (read-only injection and verification) obey.
type seededSource struct {
	k, d int
	seed int64

	mu    sync.Mutex
	cache map[int][]token.Token
}

// sourceCacheCap bounds the memoized generations; it comfortably covers
// the active windows of every node (spread over at most a few
// generations around the cluster-wide frontier) without growing with
// stream length.
const sourceCacheCap = 32

// NewSeededSource returns the default deterministic stream: k tokens of
// d payload bits per generation, all randomness derived from the seed
// and the generation number alone.
func NewSeededSource(k, d int, seed int64) Source {
	return &seededSource{k: k, d: d, seed: seed, cache: make(map[int][]token.Token)}
}

func (s *seededSource) Generation(g int) []token.Token {
	s.mu.Lock()
	defer s.mu.Unlock()
	if out, ok := s.cache[g]; ok {
		return out
	}
	out := s.buildUncached(g)
	if len(s.cache) >= sourceCacheCap {
		// Evict the cached generation farthest from g: consumers cluster
		// around the advancing frontier, so distance from the current
		// request is the best staleness signal — and unlike "evict the
		// minimum" it bounds the cache even when a straggler walks
		// backward through generations older than everything cached.
		victim, dist := g, -1
		for have := range s.cache {
			d := have - g
			if d < 0 {
				d = -d
			}
			if d > dist {
				victim, dist = have, d
			}
		}
		delete(s.cache, victim)
	}
	s.cache[g] = out
	return out
}

// buildUncached constructs generation g's tokens from the seed alone —
// the pure function the cache memoizes.
func (s *seededSource) buildUncached(g int) []token.Token {
	rng := newGenRand(s.seed, g)
	out := make([]token.Token, s.k)
	for j := range out {
		out[j] = token.Random(token.NewUID(j, g), s.d, rng)
	}
	return out
}

// DeliverFunc consumes one decoded generation. Per node, calls arrive
// strictly in generation order; the token slice is freshly decoded and
// owned by the callee. In async mode — and in lockstep mode with
// Config.Shards > 1, where the drain phase runs nodes on parallel
// shard workers — it is called from multiple goroutines and must be
// safe for concurrent use.
type DeliverFunc func(node, gen int, toks []token.Token)

// Config parameterizes a streaming run.
type Config struct {
	// N is the number of nodes.
	N int
	// K is the generation size in tokens.
	K int
	// PayloadBits is the token payload size d.
	PayloadBits int
	// Window is the maximum number of generations a node sources
	// concurrently (default 4). Window 1 is sequential dissemination:
	// one generation at a time, the E12 baseline.
	Window int
	// Generations is the stream length for this run — the experiment
	// horizon; the protocol itself has no such bound.
	Generations int
	// Fanout is the number of peers contacted per data emission
	// (default 2).
	Fanout int
	// Seed derives all node randomness. In lockstep mode it fully
	// determines the run.
	Seed int64
	// Source feeds the stream; nil means NewSeededSource(K,
	// PayloadBits, Seed).
	Source Source
	// Transport carries the packets; nil means a fresh ChanTransport
	// sized so lockstep backpressure drops cannot occur. Run closes the
	// transport before returning.
	Transport cluster.Transport
	// Deliver observes decoded generations (optional).
	Deliver DeliverFunc
	// Lockstep runs the deterministic single-threaded driver instead of
	// goroutines.
	Lockstep bool
	// Shards splits the lockstep driver's per-node phases across that
	// many workers over contiguous node-id ranges, with a serial
	// exchange barrier replaying emissions in id order so transcripts
	// stay bit-identical to the serial driver at every shard count (see
	// DESIGN.md "Node runtime and drivers"). 0 and 1
	// both mean the serial engine; >1 requires Lockstep. On sharded runs
	// Deliver is called concurrently from shard workers (distinct nodes
	// only — per-node calls stay strictly ordered) and must be safe for
	// concurrent use, exactly as in async mode.
	Shards int
	// MaxTicks caps a lockstep run (default 20000).
	MaxTicks int
	// Interval paces each node's ticker emissions in async mode
	// (default 500µs).
	Interval time.Duration
	// Timeout caps the async run's wall clock (default 30s).
	Timeout time.Duration
	// Churn optionally scripts dynamic membership (see
	// cluster.ChurnSchedule / cluster.ParseChurn). Nil means the fixed
	// always-alive membership. Joiners catch up from the retirement
	// frontier they learn from watermark gossip; the frontier itself
	// ignores nodes silent for longer than the suspicion threshold so
	// crashes cannot deadlock retirement.
	Churn *cluster.ChurnSchedule
	// SuspectTicks is the silence threshold (in lockstep ticks; async
	// runs scale it by Interval) after which a peer is dropped from the
	// retirement frontier and peer sampling. Only used with Churn;
	// default 50.
	SuspectTicks int
	// Telemetry optionally traces the run (nil = disabled, zero
	// overhead). Size it for maxNodes (N + Churn.Joins()). Recording
	// only observes — a traced lockstep run produces the same transcript
	// as an untraced one.
	Telemetry *telemetry.Recorder
}

// maxNodes is the run's node id space: the initial membership plus
// every id the churn schedule can create.
func (c Config) maxNodes() int { return c.N + c.Churn.Joins() }

func (c Config) suspectTicks() int {
	if c.SuspectTicks > 0 {
		return c.SuspectTicks
	}
	return 50
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 4
}

func (c Config) source() Source {
	if c.Source != nil {
		return c.Source
	}
	return NewSeededSource(c.K, c.PayloadBits, c.Seed)
}

// InboxBuffer returns the per-node inbox size at which lockstep
// backpressure drops are impossible: one tick's worst case is every
// node targeting the same inbox with fanout data packets plus one ack
// each.
func InboxBuffer(n, fanout int) int { return cluster.InboxBuffer(n, fanout+1) }

// DefaultInboxBuffer is the sizing the driver (and the CLI's buffer
// auto-sizing) uses when no transport is supplied: the exact
// InboxBuffer bound below cluster.LargeClusterNodes, capped at a
// constant slot count above it — see cluster.DefaultInboxBuffer for
// the overflow analysis.
func DefaultInboxBuffer(n, fanout int) int { return cluster.DefaultInboxBuffer(n, fanout+1) }

// NodeMetrics are one node's counters for a streaming run.
type NodeMetrics struct {
	// The counters every gossip runtime keeps, with the stream's
	// reading: PacketsOut / PacketsIn count coded data packets only
	// (acks are counted separately below), BitsOut covers data, acks
	// and hellos, Innovative counts received coded packets that grew a
	// span. Done, DoneTick and DoneAt mark delivery of the final
	// generation; JoinTick / JoinAt the node's latest (re)entry.
	cluster.NodeMetrics
	AcksOut int64
	AcksIn  int64
	// Stale counts received coded packets for generations already
	// retired locally (or arriving before a joiner bootstrapped).
	Stale int64
	// Delivered is the number of generations handed to the consumer
	// (from StartGen onward for joiners).
	Delivered int
	// StartGen is where the node's delivery obligation started: 0 for
	// founding members, the frontier learned at join time for joiners.
	StartGen int
	// CaughtUpTick / CaughtUpAt stamp a mid-stream joiner's first
	// delivery — the moment it reached the cluster watermark it
	// learned at join time. Zero for founding members. Subtract
	// JoinTick / JoinAt for the time-to-catch-up.
	CaughtUpTick int
	CaughtUpAt   time.Duration
	// MaxSpanBytes is the peak heap held in live spans — the memory a
	// node needs no matter how long the stream is; window retirement is
	// what keeps it bounded.
	MaxSpanBytes int
	// MaxActiveGens is the peak number of concurrently live spans.
	MaxActiveGens int
}

// Result reports a finished streaming run.
type Result struct {
	// Completed is true when every live node delivered the stream
	// through Generations (from its StartGen onward) and every
	// scheduled join/restart was applied, before the timeout/tick cap.
	Completed bool
	// FinalLive counts the nodes live at the end of the run.
	FinalLive int
	// Elapsed is the async wall clock (also set, informationally, for
	// lockstep runs).
	Elapsed time.Duration
	// Ticks is the lockstep tick count at completion (0 for async).
	Ticks int
	// TokensDelivered totals consumer deliveries across all nodes
	// (N·K·Generations on a completed run).
	TokensDelivered int64
	Nodes           []NodeMetrics

	// Aggregates over Nodes.
	PacketsOut int64
	PacketsIn  int64
	AcksOut    int64
	BitsOut    int64
	Dropped    int64
	// MaxSpanBytes is the largest per-node span footprint observed.
	MaxSpanBytes int
}

// DoneTicks returns each completed node's DoneTick as float64s.
func (r *Result) DoneTicks() []float64 {
	out := make([]float64, 0, len(r.Nodes))
	for _, m := range r.Nodes {
		if m.Done {
			out = append(out, float64(m.DoneTick))
		}
	}
	return out
}

// DoneTimes returns each completed node's DoneAt in seconds.
func (r *Result) DoneTimes() []float64 {
	out := make([]float64, 0, len(r.Nodes))
	for _, m := range r.Nodes {
		if m.Done {
			out = append(out, m.DoneAt.Seconds())
		}
	}
	return out
}

// validate rejects stream shapes no run can carry.
func (c Config) validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("stream: need at least 1 node, got %d", c.N)
	case c.K < 1:
		return fmt.Errorf("stream: need at least 1 token per generation, got %d", c.K)
	case c.PayloadBits < 1:
		return fmt.Errorf("stream: need at least 1 payload bit, got %d", c.PayloadBits)
	case c.Generations < 1:
		return fmt.Errorf("stream: need at least 1 generation, got %d", c.Generations)
	case uint64(c.Generations) > wire.MaxEpoch: // Generations >= 1 here; uint64 keeps 32-bit builds compiling
		// The generation number rides the 32-bit wire epoch; beyond it,
		// generation g and g+2^32 would alias in ack/rank bookkeeping
		// (the constructors panic rather than wrap — shard the stream).
		return fmt.Errorf("stream: %d generations exceed the 32-bit wire epoch space (%d)", c.Generations, uint64(wire.MaxEpoch))
	case c.Window < 0:
		return fmt.Errorf("stream: negative window %d", c.Window)
	case c.Fanout < 0:
		return fmt.Errorf("stream: negative fanout %d", c.Fanout)
	}
	return nil
}

// engine returns the cluster.Engine that streams c: its nodes are this
// package's, sharing one Source (checked against K here) and counting
// into the blocks metrics hands out.
func (c Config) engine(metrics func(id int) *NodeMetrics) (cluster.Engine, error) {
	src := c.source()
	if toks := src.Generation(0); len(toks) != c.K {
		return cluster.Engine{}, fmt.Errorf("stream: source produced %d tokens per generation, want K=%d", len(toks), c.K)
	}
	eng := cluster.Engine{
		New: func(nd *cluster.Node, joiner bool) cluster.Protocol {
			return newNode(nd, c, src, metrics(nd.ID), joiner)
		},
		Metrics: func(id int) *cluster.NodeMetrics { return &metrics(id).NodeMetrics },
		Control: 1, // the ack
	}
	if c.Churn != nil {
		// The retirement frontier would deadlock on a dead node's stale
		// watermark; churnless runs never suspect.
		eng.SuspectTicks = c.suspectTicks()
	}
	return eng, nil
}

// Run streams cfg.Generations generations of cfg.K tokens across an
// n-node gossip cluster until every live node has decoded and
// delivered the whole stream in order (joiners from the frontier they
// learned at join time), the context is canceled, the timeout expires,
// or the lockstep tick cap is hit. Every delivered generation is
// verified against the Source before Run returns it to the consumer.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Churn.Validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.Shards > 1 && !cfg.Lockstep {
		return nil, fmt.Errorf("stream: Shards=%d requires Lockstep (the async driver is already concurrent)", cfg.Shards)
	}
	res := &Result{Nodes: make([]NodeMetrics, cfg.maxNodes())}
	eng, err := cfg.engine(func(id int) *NodeMetrics { return &res.Nodes[id] })
	if err != nil {
		return nil, err
	}
	run, err := eng.Run(ctx, cluster.Config{
		N: cfg.N, Fanout: cfg.Fanout, Seed: cfg.Seed, Transport: cfg.Transport,
		Interval: cfg.Interval, Timeout: cfg.Timeout, Lockstep: cfg.Lockstep,
		Shards: cfg.Shards, MaxTicks: cfg.MaxTicks, Churn: cfg.Churn, Telemetry: cfg.Telemetry,
	})
	res.Completed, res.FinalLive, res.Elapsed, res.Ticks = run.Completed, run.FinalLive, run.Elapsed, run.Ticks
	res.PacketsOut, res.PacketsIn, res.BitsOut, res.Dropped = run.PacketsOut, run.PacketsIn, run.BitsOut, run.Dropped
	for _, m := range res.Nodes {
		res.AcksOut += m.AcksOut
		res.TokensDelivered += int64(m.Delivered) * int64(cfg.K)
		res.MaxSpanBytes = max(res.MaxSpanBytes, m.MaxSpanBytes)
	}
	return res, err
}
