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
// watermark: a frontier every id has delivered up to, and each id's
// offset above it in bit-planes, 64 ids a word. A receiver
// adopts a larger frontier and takes each offset's maximum, a word of
// ids at a time, so the cluster-wide minimum watermark — the retirement
// frontier — converges at gossip speed. A generation below the frontier
// is globally decoded: its span is Reset, returned to a per-node pool,
// and the window slides forward, which is what bounds each node's memory
// to O(Window) spans no matter how long the stream runs.
//
// Decoded generations are delivered to Config.Deliver strictly in
// generation order per node, and every delivery is verified against the
// Source before the callback sees it.
//
// The package is a protocol, not a runtime: its node implements
// cluster.Protocol and runs on cluster.Engine's two drivers — the
// deterministic lockstep driver whose runs are a pure function of
// Config.Seed, and the wall-clock one (context shutdown), which drives
// a goroutine per node in Run and the one node of a process in
// RunSingle (see DESIGN.md "Node runtime and drivers").
package stream

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/keyed"
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
	rng := keyed.Rand(s.seed, keyed.Generation, int64(g))
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

// Config parameterizes a streaming run: the stream's own shape, plus
// the fields of the run description, cluster.Config, which mean here
// exactly what they mean there (runtime is the lowering).
type Config struct {
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
	// Source feeds the stream; nil means NewSeededSource(K,
	// PayloadBits, Seed).
	Source Source
	// Deliver observes decoded generations (optional). On sharded runs
	// (Shards > 1) it is called concurrently from shard workers
	// (distinct nodes only — per-node calls stay strictly ordered) and
	// must be safe for concurrent use, exactly as in async mode.
	Deliver DeliverFunc
	// SuspectTicks is the silence threshold (in lockstep ticks; async
	// runs scale it by Interval) after which a peer is dropped from the
	// retirement frontier; peer sampling never drops a suspected peer
	// (see cluster.View.Pick). Only used with Churn; default 50.
	SuspectTicks int

	// The run description: each field below means what the field of the
	// same name means in cluster.Config, which resolves it.

	// N is the number of nodes.
	N int
	// Fanout is the number of peers contacted per data emission
	// (default 2); the ack is extra.
	Fanout int
	// Seed derives all node randomness. In lockstep mode it fully
	// determines the run.
	Seed int64
	// Transport carries the packets; nil means DefaultTransport(), sized
	// so lockstep backpressure drops cannot occur. Run closes the
	// transport before returning.
	Transport cluster.Transport
	// Lockstep runs the deterministic single-threaded driver instead of
	// goroutines.
	Lockstep bool
	// Shards splits the lockstep driver's per-node phases across that
	// many workers, transcripts bit-identical at every count (see
	// DESIGN.md "Node runtime and drivers"). 0 and 1 both mean the
	// serial engine; >1 requires Lockstep.
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
	// ignores nodes silent for longer than SuspectTicks so crashes
	// cannot deadlock retirement.
	Churn *cluster.ChurnSchedule
	// Telemetry optionally traces the run (nil = disabled, zero
	// overhead). Size it for the whole id space (N plus the schedule's
	// joins). Recording only observes — a traced lockstep run produces
	// the same transcript as an untraced one.
	Telemetry *telemetry.Recorder
}

// runtime lowers c onto the run description the engine resolves: what
// is left over — K, PayloadBits, Window, Generations, Source, Deliver,
// SuspectTicks — is the protocol's.
func (c Config) runtime() cluster.Config {
	return cluster.Config{
		N: c.N, Fanout: c.Fanout, Seed: c.Seed, Transport: c.Transport,
		Interval: c.Interval, Timeout: c.Timeout, Lockstep: c.Lockstep,
		Shards: c.Shards, MaxTicks: c.MaxTicks, Churn: c.Churn, Telemetry: c.Telemetry,
	}
}

// control is the packets a node sends per tick besides its Fanout data
// packets: the one ack.
const control = 1

// DefaultTransport returns the in-process fabric a run of c gets when
// c.Transport is nil — the tick mailbox when c.Lockstep, channels
// otherwise (see cluster.Config.DefaultTransport) — for callers that
// want middlewares over the default fabric.
func (c Config) DefaultTransport() cluster.Transport {
	return c.runtime().DefaultTransport(control)
}

// withDefaults resolves the stream's own "zero means default" fields
// (the run description's are the engine's to resolve).
func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 4
	}
	if c.SuspectTicks <= 0 {
		c.SuspectTicks = 50
	}
	if c.Source == nil {
		c.Source = NewSeededSource(c.K, c.PayloadBits, c.Seed)
	}
	return c
}

// DefaultInboxBuffer is cluster.DefaultInboxBuffer for a stream whose
// nodes send fanout data packets and the ack per tick. The runtime
// itself sizes through DefaultTransport, which also knows about churn.
func DefaultInboxBuffer(n, fanout int) int { return cluster.DefaultInboxBuffer(n, fanout+control) }

// NodeMetrics are one node's counters for a streaming run.
type NodeMetrics struct {
	// The counters every gossip runtime keeps, with the stream's
	// reading: PacketsOut / PacketsIn count coded data packets only
	// (acks are counted separately below), BitsOut covers data, acks
	// and hellos, Innovative counts received coded packets that grew a
	// span. Done and DoneTick mark delivery of the final generation;
	// JoinTick the node's latest (re)entry.
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
	// CaughtUpTick stamps a mid-stream joiner's first delivery — the
	// moment it reached the cluster watermark it learned at join time.
	// Zero for founding members. Subtract JoinTick for the
	// time-to-catch-up.
	CaughtUpTick int
	// MaxSpanBytes is the peak heap held in live spans — the memory a
	// node needs no matter how long the stream is; window retirement is
	// what keeps it bounded.
	MaxSpanBytes int
	// MaxActiveGens is the peak number of concurrently live spans.
	MaxActiveGens int
}

// Result reports a finished streaming run.
type Result struct {
	// The run-level fields and totals every protocol reports, with the
	// stream's reading: Completed is true when every live node
	// delivered the stream through Generations (from its StartGen
	// onward) and every scheduled join/restart was applied, before the
	// timeout/tick cap; PacketsOut / PacketsIn total data packets only.
	cluster.Outcome
	// TokensDelivered totals consumer deliveries across all nodes
	// (N·K·Generations on a completed run).
	TokensDelivered int64
	Nodes           []NodeMetrics

	// Aggregates over Nodes: AckBitsOut and HelloBitsOut are the part
	// of BitsOut that acks and hellos carry.
	AcksOut, AckBitsOut, HelloBitsOut int64
	// MaxSpanBytes is the largest per-node span footprint observed.
	MaxSpanBytes int
}

// validate rejects stream shapes no run can carry; what any run
// description can get wrong (N, Shards, Churn) is the engine's to
// reject.
func (c Config) validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("stream: need at least 1 token per generation, got %d", c.K)
	case c.PayloadBits < 1:
		return fmt.Errorf("stream: need at least 1 payload bit, got %d", c.PayloadBits)
	case c.PayloadBits > wire.MaxVecBits-token.UIDBits-c.K:
		// A coded vector is K coefficients, the uid and the payload; the
		// codec refuses one past its cap, so no packet would arrive.
		return fmt.Errorf("stream: %d coefficient, %d uid and %d payload bits exceed the codec's %d-bit vector cap", c.K, token.UIDBits, c.PayloadBits, wire.MaxVecBits)
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

// engine checks the stream's shape and returns the cluster.Engine that
// streams c: its nodes are this package's, sharing one Source (checked
// against K here) and counting into the blocks metrics hands out.
func (c Config) engine(metrics func(id int) *NodeMetrics) (cluster.Engine, error) {
	if err := c.validate(); err != nil {
		return cluster.Engine{}, err
	}
	c = c.withDefaults()
	if toks := c.Source.Generation(0); len(toks) != c.K {
		return cluster.Engine{}, fmt.Errorf("stream: source produced %d tokens per generation, want K=%d", len(toks), c.K)
	}
	maxN := c.runtime().MaxNodes()
	eng := cluster.Engine{
		New: func(nd *cluster.Node, joiner bool) cluster.Protocol {
			return newProtocol(nd, c, maxN, metrics(nd.ID), joiner)
		},
		Metrics: func(id int) *cluster.NodeMetrics { return &metrics(id).NodeMetrics },
		Control: control,
	}
	if c.Churn != nil {
		// The retirement frontier would deadlock on a dead node's stale
		// watermark; churnless runs never suspect.
		eng.SuspectTicks = c.SuspectTicks
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
	if err := cfg.runtime().Check(); err != nil {
		return nil, err
	}
	res := &Result{Nodes: make([]NodeMetrics, cfg.runtime().MaxNodes())}
	eng, err := cfg.engine(func(id int) *NodeMetrics { return &res.Nodes[id] })
	if err != nil {
		return nil, err
	}
	res.Outcome, err = eng.Run(ctx, cfg.runtime())
	for _, m := range res.Nodes {
		res.AcksOut += m.AcksOut
		res.AckBitsOut += m.AckBitsOut
		res.HelloBitsOut += m.HelloBitsOut
		res.TokensDelivered += int64(m.Delivered) * int64(cfg.K)
		res.MaxSpanBytes = max(res.MaxSpanBytes, m.MaxSpanBytes)
	}
	return res, err
}
