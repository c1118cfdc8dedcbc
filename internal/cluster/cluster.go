// Package cluster is the asynchronous counterpart of the synchronous
// dynnet engine: each node is a goroutine running a recoding RLNC
// gossip loop — receive a packet, fold it into the span (rlnc.Span.Add),
// push fresh random combinations of the whole span
// (rlnc.Span.RandomCombination) to random peers — over a pluggable
// Transport that serializes every message through the internal/wire
// codec. There are no rounds and no global coordination; loss, delay,
// reordering and partitions are rules of one fault Schedule.
//
// The package is also the node runtime every gossip protocol in the
// repository runs on (DESIGN.md "Node runtime and drivers"): a Node
// shell, a Protocol interface, and an Engine holding the two drivers.
// One-shot k-token gossip (Run, RunSingle) is one Protocol, defined
// here; the windowed stream of internal/stream is the other.
//
// The two drivers share the node logic, and one unit of time, the tick
// (see TickObserver):
//
//   - Async (default): goroutine per node, pacing by ticker plus
//     push-on-innovation, a tick every Interval of wall time. This is the
//     "production" shape: concurrent, lossy, timing-dependent, and the
//     one a process of a multi-process run (RunSingle) drives its own
//     node with.
//
//   - Lockstep (Config.Lockstep): a single-threaded driver alternates
//     drain and emit phases over the same node state — and over the same
//     Transport when one is supplied; its own fabric is a tick mailbox,
//     one log of the tick's packets sorted by destination at the
//     barrier — so a run is a pure function of Config.Seed:
//     reproducible trials for tests and for experiment E11.
//
// Mode Forward swaps the coded gossiper for a store-and-forward one
// (random known token per packet), the baseline E11 compares against.
package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/wire"
)

// Mode selects the gossip payload discipline.
type Mode int

const (
	// Coded nodes exchange random linear combinations of their span and
	// finish when the span reaches full coefficient rank.
	Coded Mode = iota
	// Forward nodes exchange raw tokens (store-and-forward gossip) and
	// finish when they hold all k tokens.
	Forward
)

// String returns the mode's CLI name.
func (m Mode) String() string {
	if m == Forward {
		return "forward"
	}
	return "coded"
}

// Config describes a run: it is the one run description in the
// repository. Engine.Run and Engine.RunSingle check it and resolve its
// defaults, the id-space size (MaxNodes) and the default transport
// (DefaultTransport); the stream's Config lowers onto it, and the CLIs'
// flags onto those two (DESIGN.md "Node runtime and drivers").
type Config struct {
	// N is the number of nodes.
	N int
	// Fanout is the number of peers contacted per emission (default 2).
	Fanout int
	// Mode selects coded or store-and-forward gossip.
	Mode Mode
	// Seed derives all node randomness (coding coins, peer choice). In
	// lockstep mode it fully determines the run.
	Seed int64
	// Transport carries the packets; nil means DefaultTransport (build
	// stacks over that, with Lockstep already set, to keep the engine's
	// own fabric). Run closes the transport before returning; RunSingle,
	// where it is the process's socket and required, does not.
	Transport Transport
	// Interval paces each node's ticker emissions in async mode
	// (default 500µs).
	Interval time.Duration
	// Timeout caps the async run's wall clock (default 30s).
	Timeout time.Duration
	// Lockstep runs the deterministic single-threaded driver instead of
	// goroutines.
	Lockstep bool
	// Shards splits the lockstep driver's per-node phases (initial
	// spawn, sample, drain, and emit on the engine's own tick mailbox)
	// across that many worker goroutines over contiguous node-id ranges.
	// Below Node.post every decision is keyed by its sender, so the
	// transcript is bit-identical to the serial driver's at every shard
	// count (see runLockstep and DESIGN.md "Node runtime and drivers").
	// 0 and 1 both mean the serial engine; >1 requires Lockstep — the
	// async driver is already concurrent.
	Shards int
	// MaxTicks caps a lockstep run (default 20000).
	MaxTicks int
	// Churn optionally scripts dynamic membership: node joins, graceful
	// leaves, crashes and restarts (see ChurnSchedule / ParseChurn). Nil
	// means the fixed always-alive membership. Event ticks map to
	// lockstep ticks directly and to At×Interval wall offsets in async
	// mode. With churn, the node id space is MaxNodes; a caller-supplied
	// Transport must be sized for it (the default transport is).
	Churn *ChurnSchedule
	// Telemetry optionally traces the run (nil = disabled, zero
	// overhead). Size it for MaxNodes; events for ids beyond the
	// recorder's space are discarded. Recording only observes — a traced
	// lockstep run produces the same transcript as an untraced one.
	Telemetry *telemetry.Recorder
}

// NodeMetrics are one node's counters. DoneTick is the tick at which
// the node completed (the first lockstep tick is 1; under the
// wall-clock drivers a tick is an Interval).
type NodeMetrics struct {
	PacketsOut int64
	PacketsIn  int64
	// HellosOut counts membership announcements sent (their bits are
	// included in BitsOut). Always zero without churn.
	HellosOut int64
	// BitsOut is protocol bits sent under the simulator's Bits()
	// accounting (wire framing excluded), comparable with
	// dynnet.Metrics.Bits. AckBitsOut and HelloBitsOut are the part of
	// it that acks and hellos carry; the rest is data.
	BitsOut, AckBitsOut, HelloBitsOut int64
	// Dropped counts Sends the transport reported undelivered.
	Dropped int64
	// Innovative counts received packets that grew this node's
	// knowledge.
	Innovative int64
	Done       bool
	DoneTick   int
	// Spawned marks ids that actually entered the run: the initial
	// members and every applied join. Metrics of unspawned ids stay
	// zero.
	Spawned bool
	// Live is the node's membership at the end of the run; false for
	// nodes that crashed or left (and for unspawned ids). Completion
	// and verification cover live nodes only.
	Live bool
	// JoinTick stamps the node's latest (re)entry into the run: zero for
	// initial members, the tick its churn event was applied at otherwise.
	JoinTick int
}

// Outcome is the run-level part of a Result — what Engine.Run reports
// about any protocol's run; each protocol's Result embeds it next to
// its own per-node counters.
type Outcome struct {
	// Completed is true when every live node reached full knowledge
	// (and every scheduled join/restart was applied) before the
	// timeout / tick cap.
	Completed bool
	// Elapsed is the async wall clock (also set, informationally, for
	// lockstep runs).
	Elapsed time.Duration
	// Ticks is the lockstep tick count at completion (0 for async).
	Ticks int
	// FinalLive counts the nodes live at the end of the run.
	FinalLive int

	// Aggregates over the nodes' shared counters.
	PacketsOut int64
	PacketsIn  int64
	BitsOut    int64
	Dropped    int64
}

// Result reports a finished run.
type Result struct {
	Outcome
	// Nodes is indexed by node id over the whole id space
	// (Config.MaxNodes); check Spawned/Live per entry.
	Nodes []NodeMetrics
}

// completed is either protocol's per-node counter block:
// stream.NodeMetrics embeds NodeMetrics and so carries the method too.
type completed interface {
	completion() (done bool, tick int)
}

func (m NodeMetrics) completion() (bool, int) { return m.Done, m.DoneTick }

// DoneTicks returns each completed node's DoneTick as float64s, for
// summary statistics; nodes is a Result's Nodes.
func DoneTicks[M completed](nodes []M) []float64 {
	out := make([]float64, 0, len(nodes))
	for _, m := range nodes {
		if done, tick := m.completion(); done {
			out = append(out, float64(tick))
		}
	}
	return out
}

// largeCluster is the id-space size above which default inboxes stop
// being sized by the overflow-proof bound: that bound is O(n) slots
// per node — O(n²) total — which at n=100k would cost hundreds of
// gigabytes for buffers that are virtually all empty.
const largeCluster = 4096

// DefaultInboxBuffer is the inbox size of the default transport (the
// runtime reaches it only through Config.DefaultTransport) for n ids
// each sending perTick packets a tick: channel slots on the async
// fabric, where it is memory; the carried backlog at which a Send is
// refused on the lockstep mailbox, where it costs nothing until it
// binds. Below largeCluster it is the
// bound at which backpressure drops are impossible in lockstep mode —
// one tick's worst case is every node targeting the same inbox with
// all its packets — and above it a constant slot count. Past the cap an
// overflow is possible in principle but the per-tick arrivals at one
// inbox are Binomial(n·perTick, 1/n) — mean perTick — so the tail
// beyond 64·(perTick+1) slots is vanishingly small; if it ever hits,
// it is a deterministic, counted Dropped, not an error.
func DefaultInboxBuffer(n, perTick int) int {
	full := n*perTick + 1
	if capped := 64 * (perTick + 1); n >= largeCluster && capped < full {
		return capped
	}
	return full
}

// gossiper is the payload discipline of a one-shot node: what the two
// modes do differently inside the oneShot protocol.
type gossiper interface {
	// absorb ingests one packet, reporting whether it was innovative.
	// The packet is the caller's reused scratch: implementations must
	// copy anything they retain past the call.
	absorb(p *wire.Packet) bool
	// emitInto draws one fresh packet to push into the caller-owned
	// scratch, or reports false if the node has nothing to say yet.
	emitInto(p *wire.Packet, epoch int) bool
	// heldInto fills the scratch with the i-th of the progress() things
	// the node holds, a basis row or a token: a leaver's hand-over.
	heldInto(p *wire.Packet, i, epoch int)
	// complete reports whether the node holds all k tokens.
	complete() bool
	// progress is the node's decoding progress (span rank, or token
	// count in forward mode) — the telemetry time series' rank column.
	progress() int
	// verify checks the node's final state against the originals; vecs
	// is tokenVecs of toks, flattened once per run instead of per node.
	verify(toks []token.Token, vecs []gf.BitVec) error
}

// TokenVec flattens a token to the bit vector coded gossip codes over:
// 64 UID bits (LSB-first) followed by the payload. Coding the UID
// alongside the payload keeps the coded and forward modes
// information-equivalent, so their Bits() costs are honestly
// comparable. It is shared node plumbing: internal/stream codes every
// generation with the same flattening so stream and cluster packets are
// byte-compatible.
func TokenVec(t token.Token) gf.BitVec {
	var v gf.BitVec
	TokenVecInto(&v, t)
	return v
}

// TokenVecInto is TokenVec into dst, reusing its storage when its
// capacity allows.
func TokenVecInto(dst *gf.BitVec, t token.Token) {
	dst.Resize(token.UIDBits + t.D())
	dst.SetWord(0, uint64(t.UID))
	t.Payload.CopyInto(*dst, token.UIDBits)
}

// tokenVecs flattens the run's tokens once, for seeding and for
// verification: a decoded row equals its source token iff it equals
// the token's vector, so every coded node compares words instead of
// rebuilding tokens.
func tokenVecs(toks []token.Token) []gf.BitVec {
	vecs := make([]gf.BitVec, len(toks))
	for i, t := range toks {
		vecs[i] = TokenVec(t)
	}
	return vecs
}

// VecToken inverts TokenVec. The token's payload shares v's words.
func VecToken(v gf.BitVec) token.Token {
	return token.Token{UID: token.UID(v.Word(0)), Payload: v.From(token.UIDBits)}
}

// codedNode gossips random linear combinations of its span.
type codedNode struct {
	nd   *Node
	span *rlnc.Span
}

func (c *codedNode) absorb(p *wire.Packet) bool {
	if p.Env.Type != wire.TypeCoded {
		return false
	}
	cd := p.Coded
	if cd.K != c.span.K() || cd.Vec.Len() != c.span.K()+c.span.PayloadBits() {
		return false
	}
	// Span.Add copies the vector into the basis slab, so handing it the
	// caller's scratch is safe.
	return c.span.Add(cd)
}

func (c *codedNode) emitInto(p *wire.Packet, epoch int) bool {
	if !c.span.RandomCombinationInto(&p.Coded, c.nd.Rng) {
		return false
	}
	p.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeCoded, Sender: uint32(c.nd.ID), Epoch: uint32(epoch)}
	return true
}

func (c *codedNode) heldInto(p *wire.Packet, i, epoch int) {
	c.span.RowInto(&p.Coded, i)
	p.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeCoded, Sender: uint32(c.nd.ID), Epoch: uint32(epoch)}
}

func (c *codedNode) complete() bool { return c.span.CanDecode() }

func (c *codedNode) progress() int { return c.span.Rank() }

// verify compares every unit row with its token in place; only a
// mismatch decodes, to word the error.
func (c *codedNode) verify(toks []token.Token, vecs []gf.BitVec) error {
	for i := range c.span.K() {
		if c.span.PayloadEqual(i, vecs[i]) {
			continue
		}
		rows, err := c.span.Decode()
		if err != nil {
			return fmt.Errorf("node %d: %w", c.nd.ID, err)
		}
		return fmt.Errorf("node %d: token %d decoded to %v, want %v", c.nd.ID, i, VecToken(rows[i]).UID, toks[i].UID)
	}
	return nil
}

// forwardNode gossips raw tokens, one random known token per packet.
type forwardNode struct {
	nd  *Node
	k   int
	set *token.Set
}

func (f *forwardNode) absorb(p *wire.Packet) bool {
	if p.Env.Type != wire.TypeToken {
		return false
	}
	if f.set.Has(p.Token.UID) {
		return false
	}
	// The payload aliases the caller's scratch packet; clone before
	// retaining. Novel tokens are bounded by k per node, so this is the
	// one permitted steady-state-exempt allocation.
	return f.set.Add(token.Token{UID: p.Token.UID, Payload: p.Token.Payload.Clone()})
}

func (f *forwardNode) emitInto(p *wire.Packet, epoch int) bool {
	toks := f.set.Tokens()
	if len(toks) == 0 {
		return false
	}
	// The emitted payload aliases set storage; AppendTo copies it onto
	// the wire before the packet scratch is reused.
	p.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeToken, Sender: uint32(f.nd.ID), Epoch: uint32(epoch)}
	p.Token = toks[f.nd.Rng.Intn(len(toks))]
	return true
}

func (f *forwardNode) heldInto(p *wire.Packet, i, epoch int) {
	p.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeToken, Sender: uint32(f.nd.ID), Epoch: uint32(epoch)}
	p.Token = f.set.Tokens()[i]
}

func (f *forwardNode) complete() bool { return f.set.Len() >= f.k }

func (f *forwardNode) progress() int { return f.set.Len() }

func (f *forwardNode) verify(toks []token.Token, _ []gf.BitVec) error {
	for _, want := range toks {
		got, ok := f.set.Get(want.UID)
		if !ok || !got.Equal(want) {
			return fmt.Errorf("node %d: token %v missing or corrupted", f.nd.ID, want.UID)
		}
	}
	return nil
}

// dissemination is what the nodes of a one-shot run share: the tokens
// to spread and who starts with which.
type dissemination struct {
	mode Mode
	// n is the founding membership: token i starts at node i mod n.
	n    int
	toks []token.Token
	vecs []gf.BitVec // tokenVecs(toks)
}

// oneShotEngine returns the Engine that spreads toks from n founding
// members in the given mode, counting into the given blocks.
func oneShotEngine(mode Mode, n int, toks []token.Token, metrics func(id int) *NodeMetrics) Engine {
	d := &dissemination{mode: mode, n: n, toks: toks, vecs: tokenVecs(toks)}
	return Engine{New: d.newProtocol, Metrics: metrics}
}

// newProtocol builds one node's one-shot state: a founding member is
// seeded with its stride-n share of the tokens, a joiner starts empty.
func (d *dissemination) newProtocol(nd *Node, joiner bool) Protocol {
	k := len(d.toks)
	o := &oneShot{nd: nd, d: d}
	switch d.mode {
	case Coded:
		span := rlnc.NewSpan(k, token.UIDBits+d.toks[0].D())
		if !joiner {
			for j := nd.ID; j < k; j += d.n {
				span.Add(rlnc.Encode(j, k, d.vecs[j]))
			}
		}
		o.g = &codedNode{nd: nd, span: span}
	case Forward:
		set := token.NewSet()
		if !joiner {
			for j := nd.ID; j < k; j += d.n {
				set.Add(d.toks[j])
			}
		}
		o.g = &forwardNode{nd: nd, k: k, set: set}
	}
	nd.Publish(o.g.progress())
	return o
}

// oneShot is the one-shot k-token Protocol: push fanout fresh packets
// per slot until the node holds all k tokens, then keep pushing for
// the others.
type oneShot struct {
	nd *Node
	g  gossiper
	d  *dissemination
	// verified records that the node's complete state has been checked
	// against the originals (see verifyOnce).
	verified bool
}

func (o *oneShot) Start() { o.verifyOnce() }

// verifyOnce verifies the node's state the moment it first holds every
// token — a corrupt decode fails the run there, not after more gossip
// has spread it — and never again: a complete node's state is final.
func (o *oneShot) verifyOnce() {
	if o.verified || !o.g.complete() {
		return
	}
	o.verified = true
	if err := o.g.verify(o.d.toks, o.d.vecs); err != nil {
		o.nd.Fail(fmt.Errorf("cluster: verification failed: %w", err))
	}
}

// Absorb feeds one gossip packet to the gossiper. PacketsIn counts
// every non-hello packet, and every packet proves its sender live.
func (o *oneShot) Absorb(p *wire.Packet) bool {
	nd := o.nd
	sender := int(p.Env.Sender)
	nd.M.PacketsIn++
	nd.View.Mark(sender, nd.Now)
	innovative := o.g.absorb(p)
	if innovative {
		nd.M.Innovative++
		nd.Publish(o.g.progress())
		o.verifyOnce()
	}
	if nd.Tel != nil { // progress() is only worth computing when tracing
		nd.Tel.Event(nd.ID, nd.Now, telemetry.KindRecv, int64(sender), int64(p.Env.Epoch), 0)
		c := int64(0)
		if innovative {
			c = 1
		}
		nd.Tel.Event(nd.ID, nd.Now, telemetry.KindInsert, int64(p.Env.Epoch), int64(o.g.progress()), c)
	}
	return innovative
}

// Emit pushes up to Fanout fresh packets to random view peers; every
// slot is the same, paced or not. emitInto fills the Tx scratch, Send
// marshals it into a recycled buffer, and a refused Send returns the
// buffer to the ring — the steady-state path touches the allocator not
// at all.
func (o *oneShot) Emit(bool) {
	nd := o.nd
	if nd.View.LiveCount() < 2 {
		return
	}
	for f := 0; f < nd.Fanout; f++ {
		if !o.g.emitInto(&nd.Tx, int(nd.M.PacketsOut)) {
			if f == 0 {
				nd.Announce()
			}
			return
		}
		peer := nd.Pick()
		if peer < 0 {
			return
		}
		nd.Send(peer)
	}
}

func (o *oneShot) Done() bool { return o.g.complete() }

func (o *oneShot) Progress() (rank, watermark int) { return o.g.progress(), 0 }

// Restart resumes with the span or token set the node crashed with.
func (o *oneShot) Restart() {}

// Leave hands over everything the node holds, one packet per basis row
// or token, each to a freshly picked peer: a graceful leaver may hold
// the only copy of a token (its own, before any packet carrying it
// alone has arrived), and then no amount of gossip among the survivors
// completes the run. Peers leaving in the same churn batch are out of
// the view by now (run.apply); what the fabric loses of the hand-over is
// lost.
func (o *oneShot) Leave() {
	nd := o.nd
	for i, r := 0, o.g.progress(); i < r; i++ {
		peer := nd.Pick()
		if peer < 0 {
			return
		}
		o.g.heldInto(&nd.Tx, i, int(nd.M.PacketsOut))
		nd.Send(peer)
	}
}

// validate rejects token sets and modes no one-shot run can spread.
func validate(mode Mode, toks []token.Token) error {
	if len(toks) < 1 {
		return fmt.Errorf("cluster: need at least 1 token")
	}
	d := toks[0].D()
	for i, t := range toks {
		if t.D() != d {
			return fmt.Errorf("cluster: token %d has %d payload bits, token 0 has %d", i, t.D(), d)
		}
	}
	if mode != Coded && mode != Forward {
		return fmt.Errorf("cluster: unknown mode %d", mode)
	}
	if d > wire.MaxVecBits-token.UIDBits-len(toks) {
		// No decoder takes a coded vector (coefficients, uid, payload)
		// past the codec's cap; forwarding is held to the same width.
		return fmt.Errorf("cluster: %d tokens of %d bits make coded vectors past the codec's %d-bit cap", len(toks), d, wire.MaxVecBits)
	}
	return nil
}

// Run disseminates toks across an n-node cluster until every live node
// holds all of them (coded: full span rank; forward: full token set),
// the context is canceled, the timeout expires, or the lockstep tick
// cap is hit. Token i starts at node i mod n. All token payloads must
// have the same bit length. Every node's state is verified against the
// originals the moment it completes; a mismatch fails the run.
//
// With a Churn schedule the membership is dynamic: joiners start empty
// and bootstrap from a contact list of the nodes live at join time,
// announcing themselves with wire.TypeHello; leavers hand over what
// they hold and announce their departure; crashed nodes just go silent
// (their unclaimed inbox absorbs wasted sends as drops). A run does not
// complete before every scheduled join/restart has been applied and
// caught up.
func Run(ctx context.Context, cfg Config, toks []token.Token) (*Result, error) {
	if err := validate(cfg.Mode, toks); err != nil {
		return nil, err
	}
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	nodes := make([]NodeMetrics, cfg.MaxNodes())
	out, err := oneShotEngine(cfg.Mode, cfg.N, toks, func(id int) *NodeMetrics { return &nodes[id] }).Run(ctx, cfg)
	return &Result{Outcome: out, Nodes: nodes}, err
}
