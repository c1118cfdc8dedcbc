// Package cluster is the asynchronous counterpart of the synchronous
// dynnet engine: each node is a goroutine running a recoding RLNC
// gossip loop — receive a packet, fold it into the span (rlnc.Span.Add),
// push fresh random combinations of the whole span
// (rlnc.Span.RandomCombination) to random peers — over a pluggable
// Transport that serializes every message through the internal/wire
// codec. There are no rounds and no global coordination; loss, delay,
// reordering and partitions are composable transport middlewares.
//
// Two execution modes share the node logic:
//
//   - Async (default): goroutine per node, pacing by ticker plus
//     push-on-innovation, wall-clock metrics. This is the "production"
//     shape: concurrent, lossy, timing-dependent.
//
//   - Lockstep (Config.Lockstep): a single-threaded driver alternates
//     drain and emit phases over the same Transport and node state, so
//     a run is a pure function of Config.Seed — reproducible trials for
//     tests and for experiment E11.
//
// Mode Forward swaps the coded gossiper for a store-and-forward one
// (random known token per packet), the baseline E11 compares against.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/shard"
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

// Config parameterizes a cluster run.
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
	// Transport carries the packets; nil means a fresh ChanTransport
	// sized so buffer overflow cannot occur in lockstep mode. Run closes
	// the transport before returning.
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
	// spawn, sample, drain, emit) across that many worker goroutines
	// over contiguous node-id ranges, with a serial exchange barrier
	// replaying each shard's emissions in id order so the transcript
	// stays bit-identical to the serial driver for every shard count
	// (see outbox.go and DESIGN.md "Sharded lockstep engine"). 0 and 1
	// both mean the serial engine; >1 requires Lockstep — the async
	// driver is already concurrent.
	Shards int
	// MaxTicks caps a lockstep run (default 20000).
	MaxTicks int
	// Churn optionally scripts dynamic membership: node joins, graceful
	// leaves, crashes and restarts (see ChurnSchedule / ParseChurn). Nil
	// means the fixed always-alive membership. Event ticks map to
	// lockstep ticks directly and to At×Interval wall offsets in async
	// mode. With churn, the node id space is N + Churn.Joins(); a
	// caller-supplied Transport must be sized for it (the default
	// transport is).
	Churn *ChurnSchedule
	// Telemetry optionally traces the run (nil = disabled, zero
	// overhead). Size it for maxNodes (N + Churn.Joins()); events for
	// ids beyond the recorder's space are discarded. Recording only
	// observes — a traced lockstep run produces the same transcript as
	// an untraced one.
	Telemetry *telemetry.Recorder
}

// maxNodes is the run's node id space: the initial membership plus
// every id the churn schedule can create.
func (c Config) maxNodes() int { return c.N + c.Churn.Joins() }

func (c Config) fanout() int {
	if c.Fanout > 0 {
		return c.Fanout
	}
	return 2
}

func (c Config) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 500 * time.Microsecond
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

func (c Config) shards() int {
	if c.Shards > 1 {
		return c.Shards
	}
	return 1
}

func (c Config) maxTicks() int {
	if c.MaxTicks > 0 {
		return c.MaxTicks
	}
	return 20000
}

// NodeMetrics are one node's counters. In async mode DoneAt is the wall
// time from start to full knowledge; in lockstep mode DoneTick is the
// tick at which the node completed (0-based first tick is 1).
type NodeMetrics struct {
	PacketsOut int64
	PacketsIn  int64
	// HellosOut counts membership announcements sent (their bits are
	// included in BitsOut). Always zero without churn.
	HellosOut int64
	// BitsOut is protocol bits sent under the simulator's Bits()
	// accounting (wire framing excluded), comparable with
	// dynnet.Metrics.Bits.
	BitsOut int64
	// Dropped counts Sends the transport reported undelivered.
	Dropped int64
	// Innovative counts received packets that grew this node's
	// knowledge.
	Innovative int64
	Done       bool
	DoneAt     time.Duration
	DoneTick   int
	// Spawned marks ids that actually entered the run: the initial
	// members and every applied join. Metrics of unspawned ids stay
	// zero.
	Spawned bool
	// Live is the node's membership at the end of the run; false for
	// nodes that crashed or left (and for unspawned ids). Completion
	// and verification cover live nodes only.
	Live bool
	// JoinTick / JoinAt stamp the node's latest (re)entry into the run:
	// zero for initial members, the churn event's lockstep tick or
	// async wall offset otherwise.
	JoinTick int
	JoinAt   time.Duration
}

// Result reports a finished run.
type Result struct {
	// Completed is true when every live node reached full knowledge
	// (and every scheduled join/restart was applied) before the
	// timeout / tick cap.
	Completed bool
	// Elapsed is the async wall clock (also set, informationally, for
	// lockstep runs).
	Elapsed time.Duration
	// Ticks is the lockstep tick count at completion (0 for async).
	Ticks int
	// Nodes is indexed by node id over the whole id space
	// (Config.N + Churn.Joins()); check Spawned/Live per entry.
	Nodes []NodeMetrics

	// FinalLive counts the nodes live at the end of the run.
	FinalLive int

	// Aggregates over Nodes.
	PacketsOut int64
	PacketsIn  int64
	BitsOut    int64
	Dropped    int64
}

// DoneTicks returns each completed node's DoneTick as float64s, for
// summary statistics.
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

// InboxBuffer returns the per-node inbox size at which backpressure
// drops are impossible in lockstep mode: one tick's worst case is every
// node targeting the same inbox with fanout packets each. Callers that
// pre-build a ChanTransport (to wrap middlewares around it) should size
// it with the same fanout they pass to Run — and, under churn, pass
// Config.maxNodes-many nodes and one extra fanout slot, since every
// member may additionally address one hello to the same inbox in a
// tick (join/leave bursts and the nothing-to-say announcement).
func InboxBuffer(n, fanout int) int { return n*fanout + 1 }

// LargeClusterNodes is the id-space size above which the drivers stop
// sizing default inboxes by the overflow-proof InboxBuffer bound: that
// bound is O(n) slots per node — O(n²) total — which at n=100k would
// cost hundreds of gigabytes for buffers that are virtually all empty.
const LargeClusterNodes = 4096

// DefaultInboxBuffer is the inbox sizing the drivers (and the CLIs'
// buffer auto-sizing) use when no explicit buffer is given: the exact
// InboxBuffer bound below LargeClusterNodes, capped at a constant slot
// count above it. Past the cap an overflow is possible in principle
// but the per-tick arrivals at one inbox are Binomial(n·fanout, 1/n) —
// mean fanout — so the tail beyond 64·(fanout+1) slots is vanishingly
// small; if it ever hits, it is a deterministic, counted Dropped, not
// an error.
func DefaultInboxBuffer(n, fanout int) int {
	full := InboxBuffer(n, fanout)
	if capped := 64 * (fanout + 1); n >= LargeClusterNodes && capped < full {
		return capped
	}
	return full
}

// gossiper is the per-node protocol state shared by both modes.
type gossiper interface {
	// absorb ingests one packet, reporting whether it was innovative.
	// The packet is the caller's reused scratch: implementations must
	// copy anything they retain past the call.
	absorb(p *wire.Packet) bool
	// emitInto draws one fresh packet to push into the caller-owned
	// scratch, or reports false if the node has nothing to say yet.
	emitInto(p *wire.Packet, epoch int) bool
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
	v := gf.NewBitVec(token.UIDBits + t.D())
	u := uint64(t.UID)
	for b := 0; b < token.UIDBits; b++ {
		if u>>uint(b)&1 == 1 {
			v.Set(b, true)
		}
	}
	t.Payload.CopyInto(v, token.UIDBits)
	return v
}

// tokenVecs flattens the run's tokens once for verification: a decoded
// row equals its source token iff it equals the token's vector, so
// every coded node compares words instead of rebuilding tokens.
func tokenVecs(toks []token.Token) []gf.BitVec {
	vecs := make([]gf.BitVec, len(toks))
	for i, t := range toks {
		vecs[i] = TokenVec(t)
	}
	return vecs
}

// VecToken inverts TokenVec.
func VecToken(v gf.BitVec) token.Token {
	var u uint64
	for b := 0; b < token.UIDBits; b++ {
		if v.Bit(b) {
			u |= 1 << uint(b)
		}
	}
	return token.Token{UID: token.UID(u), Payload: v.Slice(token.UIDBits, v.Len())}
}

// codedNode gossips random linear combinations of its span.
type codedNode struct {
	id   int
	span *rlnc.Span
	rng  *rand.Rand
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
	if !c.span.RandomCombinationInto(&p.Coded, c.rng) {
		return false
	}
	p.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeCoded, Sender: uint32(c.id), Epoch: uint32(epoch)}
	return true
}

func (c *codedNode) complete() bool { return c.span.CanDecode() }

func (c *codedNode) progress() int { return c.span.Rank() }

func (c *codedNode) verify(toks []token.Token, vecs []gf.BitVec) error {
	rows, err := c.span.Decode()
	if err != nil {
		return fmt.Errorf("node %d: %w", c.id, err)
	}
	for i, row := range rows {
		if !row.Equal(vecs[i]) {
			return fmt.Errorf("node %d: token %d decoded to %v, want %v", c.id, i, VecToken(row).UID, toks[i].UID)
		}
	}
	return nil
}

// forwardNode gossips raw tokens, one random known token per packet.
type forwardNode struct {
	id  int
	k   int
	set *token.Set
	rng *rand.Rand
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
	p.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeToken, Sender: uint32(f.id), Epoch: uint32(epoch)}
	p.Token = toks[f.rng.Intn(len(toks))]
	return true
}

func (f *forwardNode) complete() bool { return f.set.Len() >= f.k }

func (f *forwardNode) progress() int { return f.set.Len() }

func (f *forwardNode) verify(toks []token.Token, _ []gf.BitVec) error {
	for _, want := range toks {
		got, ok := f.set.Get(want.UID)
		if !ok || !got.Equal(want) {
			return fmt.Errorf("node %d: token %v missing or corrupted", f.id, want.UID)
		}
	}
	return nil
}

// Run disseminates toks across an n-node cluster until every live node
// holds all of them (coded: full span rank; forward: full token set),
// the context is canceled, the timeout expires, or the lockstep tick
// cap is hit. Token i starts at node i mod n. All token payloads must
// have the same bit length. On a completed run every live node's final
// state is verified against the originals before Run returns.
//
// With a Churn schedule the membership is dynamic: joiners start empty
// and bootstrap from a contact list of the nodes live at join time,
// announcing themselves with wire.TypeHello; leavers announce their
// departure; crashed nodes just go silent (their unclaimed inbox
// absorbs wasted sends as drops). A run does not complete before every
// scheduled join/restart has been applied and caught up.
func Run(ctx context.Context, cfg Config, toks []token.Token) (*Result, error) {
	k := len(toks)
	if cfg.N < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.N)
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 token")
	}
	d := toks[0].D()
	for i, t := range toks {
		if t.D() != d {
			return nil, fmt.Errorf("cluster: token %d has %d payload bits, token 0 has %d", i, t.D(), d)
		}
	}
	if cfg.Mode != Coded && cfg.Mode != Forward {
		return nil, fmt.Errorf("cluster: unknown mode %d", cfg.Mode)
	}
	if err := cfg.Churn.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Shards > 1 && !cfg.Lockstep {
		return nil, fmt.Errorf("cluster: Shards=%d requires Lockstep (the async driver is already concurrent)", cfg.Shards)
	}

	maxN := cfg.maxNodes()
	fanout := cfg.fanout()
	tr := cfg.Transport
	if tr == nil {
		extra := 0
		if cfg.Churn != nil {
			extra = 1 // hello headroom; see InboxBuffer
		}
		tr = NewChanTransport(maxN, DefaultInboxBuffer(maxN, fanout+extra))
	}
	defer tr.Close()

	res := &Result{Nodes: make([]NodeMetrics, maxN)}
	cr := &clusterRun{
		cfg:     cfg,
		toks:    toks,
		tr:      tr,
		res:     res,
		maxN:    maxN,
		fanout:  fanout,
		members: make([]*member, maxN),
		live:    make([]bool, maxN),
		ch:      NewChurner(cfg.Churn, cfg.N, maxN, cfg.Seed),
		exec:    shard.New(maxN, cfg.shards()),
	}
	if cfg.Churn.HasTargeted() {
		cr.ranks = make([]atomic.Int64, maxN)
		cr.ch.SetRank(func(id int) int { return int(cr.ranks[id].Load()) })
	}
	if cr.exec.Shards() > 1 {
		cr.outs = make([]*Outbox, cr.exec.Shards())
		for i := range cr.outs {
			cr.outs[i] = &Outbox{}
		}
	}
	for i := 0; i < cfg.N; i++ {
		cr.live[i] = true
	}
	cr.contacts = NewContacts(cr.live, maxN)
	cr.exec.Run(func(_, lo, hi int) {
		for id := lo; id < min(hi, cfg.N); id++ {
			cr.spawn(id, true, 0)
		}
	})

	start := time.Now()
	if cfg.Lockstep {
		cr.runLockstep(ctx)
	} else {
		cr.runAsync(ctx, start)
	}
	res.Elapsed = time.Since(start)

	for id := range res.Nodes {
		m := &res.Nodes[id]
		res.PacketsOut += m.PacketsOut
		res.PacketsIn += m.PacketsIn
		res.BitsOut += m.BitsOut
		res.Dropped += m.Dropped
		if m.Live {
			res.FinalLive++
		}
	}
	if res.Completed {
		want := tokenVecs(toks)
		for id, mb := range cr.members {
			if mb == nil || !res.Nodes[id].Live {
				continue
			}
			if err := mb.g.verify(toks, want); err != nil {
				return res, fmt.Errorf("cluster: verification failed: %w", err)
			}
		}
	}
	return res, nil
}

// nodeIO is one node's reusable packet plumbing: a tx scratch fed by
// emitInto, an rx scratch fed by UnmarshalInto, and the buffer ring
// that recycles wire buffers between the node's receive and send sides.
// Each nodeIO is owned by exactly one goroutine (see BufRing).
type nodeIO struct {
	tx   wire.Packet
	rx   wire.Packet
	ring *BufRing
}

// member bundles one node's whole runtime: the protocol gossiper, its
// membership view, randomness, metrics and packet plumbing. Like the
// nodeIO it wraps, a member is only ever touched by the goroutine (or
// lockstep slot) currently driving the node, which is what keeps churn
// restarts race-free: the old goroutine fully exits before the state
// is handed to the next incarnation.
type member struct {
	id   int
	g    gossiper
	view *View
	rng  *rand.Rand
	io   nodeIO
	m    *NodeMetrics
	// tel traces the node's protocol events; nil is the disabled state
	// (every recording call is a nil-receiver no-op). Owned by the same
	// goroutine/lockstep slot as the rest of the member.
	tel *telemetry.Recorder
	// known optionally gates peer sampling on routability: a transport
	// with an address book (udpnet) may know fewer peers than the view
	// believes live, and pushing to an unroutable peer only burns the
	// emission. Nil (every in-process run) means one Pick draw exactly,
	// which is what keeps the lockstep golden transcripts byte-stable.
	known func(int) bool
	// rank, when non-nil, publishes the node's decoding progress for
	// the targeted-crash oracle after every innovative receipt.
	rank *atomic.Int64
	// out, when non-nil, routes this node's emissions into its shard's
	// private outbox instead of the transport; the sharded lockstep
	// barrier replays them serially (see outbox.go). Nil on the async
	// and shards=1 paths, which send inline.
	out *Outbox
}

// pick samples a live peer for an emission. With a known gate it
// redraws a bounded number of times to land on a routable peer,
// returning -1 when the book is still too empty; without one it is
// exactly one View.Pick draw.
func (mb *member) pick(now int64) int {
	peer := mb.view.Pick(mb.rng, now)
	if mb.known == nil {
		return peer
	}
	for tries := 0; tries < 4 && peer >= 0 && !mb.known(peer); tries++ {
		peer = mb.view.Pick(mb.rng, now)
	}
	if peer >= 0 && !mb.known(peer) {
		return -1
	}
	return peer
}

// clusterRun is the shared run state of both drivers: the member table
// (indexed by node id, nil until spawned), the live set, and the
// churner applying the membership script.
type clusterRun struct {
	cfg     Config
	toks    []token.Token
	tr      Transport
	res     *Result
	maxN    int
	fanout  int
	members []*member
	live    []bool
	ch      *Churner
	// ranks backs the targeted-crash rank oracle (ChurnCrashMax /
	// ChurnCrashFrontier): each member publishes its decoding progress
	// here on every innovative receipt, and the churner reads it when
	// selecting victims — atomically, because the async churn
	// controller runs on its own goroutine. Nil unless the schedule
	// HasTargeted, so untargeted runs pay nothing.
	ranks []atomic.Int64
	// exec partitions the id space for the initial spawn and the
	// lockstep driver's parallel phases (a single shard in async mode);
	// outs holds one private outbox per shard, nil when exec has a single
	// shard (serial engine, inline sends).
	exec *shard.Executor
	outs []*Outbox
	// contacts is the live set of the current spawn batch, rebuilt
	// whenever the churner has flipped cr.live.
	contacts Contacts
}

// newMember builds one node's full runtime state independent of any
// driver: the gossiper (seeded with its stride-n share of the tokens
// when seedTokens), a view marking every id flagged in live, the
// node's seeded rng, and the buffer-ring packet plumbing. Both the
// in-process drivers (via spawn) and the multi-process single-node
// runtime (RunSingle) construct nodes through here, so the state —
// including the rng derivation that the lockstep golden transcripts
// pin — cannot drift between them.
func newMember(mode Mode, seed int64, toks []token.Token, id, n int, seedTokens bool, contacts Contacts, now int64, m *NodeMetrics, tel *telemetry.Recorder) *member {
	k := len(toks)
	d := toks[0].D()
	rng := rand.New(rand.NewSource(seed + 7919*int64(id) + 1))
	var g gossiper
	switch mode {
	case Coded:
		span := rlnc.NewSpan(k, token.UIDBits+d)
		if seedTokens {
			for j := id; j < k; j += n {
				span.Add(rlnc.Encode(j, k, TokenVec(toks[j])))
			}
		}
		g = &codedNode{id: id, span: span, rng: rng}
	case Forward:
		set := token.NewSet()
		if seedTokens {
			for j := id; j < k; j += n {
				set.Add(toks[j])
			}
		}
		g = &forwardNode{id: id, k: k, set: set, rng: rng}
	}
	mb := &member{id: id, g: g, view: contacts.View(id, now), rng: rng, m: m, tel: tel}
	mb.io.ring = NewBufRing(DefaultRingCap)
	mb.m.Spawned = true
	mb.m.Live = true
	return mb
}

// spawn builds (or wipes) the member for id. Initial members seed
// their share of the tokens; joiners start empty. The view is a copy of
// cr.contacts, the nodes live when the batch applied — a joiner's
// contact list. It touches per-id state only, so the initial batch
// spawns under cr.exec.
func (cr *clusterRun) spawn(id int, seedTokens bool, now int64) *member {
	mb := newMember(cr.cfg.Mode, cr.cfg.Seed, cr.toks, id, cr.cfg.N, seedTokens, cr.contacts, now, &cr.res.Nodes[id], cr.cfg.Telemetry)
	if cr.ranks != nil {
		mb.rank = &cr.ranks[id]
		mb.rank.Store(int64(mb.g.progress()))
	}
	if cr.outs != nil {
		mb.out = cr.outs[cr.exec.ShardOf(id)]
	}
	cr.members[id] = mb
	return mb
}

// recv decodes one drained inbox buffer into the member's rx scratch,
// folds membership information out of it (every packet proves its
// sender live; hellos carry views and leave announcements), and feeds
// gossip packets to the gossiper. It reports innovation. PacketsIn
// counts gossip payload packets only — hellos are control traffic,
// visible in the metrics as HellosOut plus their BitsOut, so the
// in/out packet counters reconcile under churn.
func (mb *member) recv(raw []byte, now int64) bool {
	if !DecodeRecycle(&mb.io.rx, mb.io.ring, raw) {
		return false
	}
	p := &mb.io.rx
	sender := int(p.Env.Sender)
	if p.Env.Type == wire.TypeHello {
		if p.Hello.Leaving {
			mb.tel.Event(mb.id, now, telemetry.KindRecvHello, int64(sender), 1, 0)
			mb.view.Remove(sender)
			return false
		}
		mb.tel.Event(mb.id, now, telemetry.KindRecvHello, int64(sender), 0, 0)
		mb.view.Mark(sender, now)
		for _, pid := range p.Hello.Peers {
			// Third-party introductions never refresh a known peer's
			// stamp (see View.Introduce).
			mb.view.Introduce(int(pid), now)
		}
		return false
	}
	mb.m.PacketsIn++
	mb.view.Mark(sender, now)
	innovative := mb.g.absorb(p)
	if innovative && mb.rank != nil {
		mb.rank.Store(int64(mb.g.progress()))
	}
	if mb.tel != nil { // progress() is only worth computing when tracing
		mb.tel.Event(mb.id, now, telemetry.KindRecv, int64(sender), int64(p.Env.Epoch), 0)
		c := int64(0)
		if innovative {
			c = 1
		}
		mb.tel.Event(mb.id, now, telemetry.KindInsert, int64(p.Env.Epoch), int64(mb.g.progress()), c)
	}
	return innovative
}

// emit pushes up to fanout fresh packets to random view peers: emitInto
// fills the tx scratch, AppendTo marshals it into a recycled buffer,
// and a dropped Send returns the buffer to the ring — the steady-state
// path touches the allocator not at all. A member with nothing to
// gossip yet (a joiner before its first packet) instead announces
// itself to one random peer when churn is on, so peers learn to push
// to it even if its join-time hello burst was lost.
func (mb *member) emit(tr Transport, fanout int, now int64, churn bool) {
	if mb.view.LiveCount() < 2 {
		return
	}
	for f := 0; f < fanout; f++ {
		if !mb.g.emitInto(&mb.io.tx, int(mb.m.PacketsOut)) {
			if f == 0 && churn {
				if peer := mb.pick(now); peer >= 0 {
					mb.sendHello(tr, peer, now, mb.buildHello(false))
				}
			}
			return
		}
		peer := mb.pick(now)
		if peer < 0 {
			return
		}
		mb.m.PacketsOut++
		bits := int64(mb.io.tx.Bits())
		mb.m.BitsOut += bits
		buf := mb.io.tx.AppendTo(mb.io.ring.Get()[:0])
		if mb.out != nil {
			// Sharded emit phase: counters and bytes are per-node state,
			// captured here in parallel; the Send and its telemetry happen
			// at the serial barrier, in the serial driver's order.
			mb.out.Add(OutEntry{From: mb.id, To: peer, Kind: OutData,
				Arg: int64(mb.io.tx.Env.Epoch), Bits: bits, Buf: buf})
			continue
		}
		mb.tel.Event(mb.id, now, telemetry.KindSend, int64(peer), int64(mb.io.tx.Env.Epoch), bits)
		if !tr.Send(mb.id, peer, buf) {
			mb.m.Dropped++
			mb.tel.Event(mb.id, now, telemetry.KindDrop, int64(peer), 0, 0)
			mb.io.ring.Put(buf)
		}
	}
}

// sample records one telemetry time-series point for the node: rank
// progress, inbox backlog, live-view size. A no-op without a recorder.
func (mb *member) sample(tr Transport, now int64) {
	if mb.tel == nil {
		return
	}
	mb.tel.Sample(mb.id, now, mb.g.progress(), 0, len(tr.Recv(mb.id)), mb.view.LiveCount())
}

// buildHello fills the tx scratch with a membership announcement
// carrying the member's current live view and returns it marshalled
// into a ring buffer.
func (mb *member) buildHello(leaving bool) []byte {
	tx := &mb.io.tx
	tx.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeHello, Sender: uint32(mb.id), Epoch: 0}
	tx.Hello.Leaving = leaving
	tx.Hello.Peers = mb.view.AppendPeers(tx.Hello.Peers[:0])
	return tx.AppendTo(mb.io.ring.Get()[:0])
}

// sendHello sends buf — the tx scratch's hello as marshalled by
// buildHello, or a copy of it — to one peer, with the usual ring-buffer
// recycling. Ownership of buf passes to the transport.
func (mb *member) sendHello(tr Transport, peer int, now int64, buf []byte) {
	mb.m.HellosOut++
	mb.m.BitsOut += int64(mb.io.tx.Bits())
	leaving := int64(0)
	if mb.io.tx.Hello.Leaving {
		leaving = 1
	}
	if mb.out != nil {
		mb.out.Add(OutEntry{From: mb.id, To: peer, Kind: OutHello, Arg: leaving, Buf: buf})
		return
	}
	mb.tel.Event(mb.id, now, telemetry.KindSendHello, int64(peer), leaving, 0)
	if !tr.Send(mb.id, peer, buf) {
		mb.m.Dropped++
		mb.tel.Event(mb.id, now, telemetry.KindDrop, int64(peer), 0, 0)
		mb.io.ring.Put(buf)
	}
}

// helloAll announces to every peer currently in the view: the
// join/restart introduction burst, or the graceful-leave goodbye.
//
// It always sends inline, even on a sharded run: helloAll only runs
// from the serial churn phase (lockstep) or the async drivers, and the
// serial engine delivers churn-phase hellos to inboxes drained the
// same tick — routing them through the shard outbox would defer them
// past the drain and change the transcript.
//
// The burst is marshalled once; each recipient gets its own exact-size
// copy, never a shared slice, because a buffer handed to Send has one
// owner from then on: middleware may rewrite it in place (hostile's
// mutator flips bits) and the receiver recycles it into its own ring.
func (mb *member) helloAll(tr Transport, leaving bool, now int64) {
	out := mb.out
	mb.out = nil
	defer func() { mb.out = out }()
	msg := mb.buildHello(leaving)
	for _, pid := range mb.io.tx.Hello.Peers {
		if int(pid) != mb.id {
			mb.sendHello(tr, int(pid), now, slices.Clone(msg))
		}
	}
	mb.io.ring.Put(msg)
}

// applyLockstep executes one churn operation under the lockstep
// driver. The churner has already flipped cr.live.
func (cr *clusterRun) applyLockstep(op ChurnOp, tick int) {
	m := &cr.res.Nodes[op.ID]
	tel := cr.cfg.Telemetry
	switch op.Kind {
	case ChurnJoin, ChurnRejoin:
		mb := cr.spawn(op.ID, false, int64(tick))
		m.Done = false
		m.DoneTick = 0
		m.JoinTick = tick
		tel.Event(op.ID, int64(tick), telemetry.KindJoin, 0, 0, 0)
		mb.helloAll(cr.tr, false, int64(tick))
	case ChurnRestart:
		mb := cr.members[op.ID]
		m.Live = true
		m.JoinTick = tick
		tel.Event(op.ID, int64(tick), telemetry.KindRestart, 0, 0, 0)
		mb.helloAll(cr.tr, false, int64(tick))
	case ChurnLeave:
		tel.Event(op.ID, int64(tick), telemetry.KindLeave, 0, 0, 0)
		cr.members[op.ID].helloAll(cr.tr, true, int64(tick))
		m.Live = false
	case ChurnCrash:
		tel.Event(op.ID, int64(tick), telemetry.KindCrash, 0, 0, 0)
		m.Live = false
	}
}

// runLockstep is the deterministic driver: per tick, churn events
// apply, every live node drains its inbox in id order, completion is
// recorded, then every live node emits. With a seeded Config the whole
// run — middleware coin flips, churn victims, everything — is a pure
// function of the seed; context cancellation (checked once per tick)
// only ever cuts a run short, it cannot change the ticks that did
// execute.
//
// With Config.Shards > 1 the per-node phases (telemetry sampling,
// inbox drain, emission) fan out across cr.exec's workers — each
// touches only state owned by its id range — while everything
// order-sensitive stays serial at the barriers: tick observation,
// churn, the completion scan, and the outbox replay that performs the
// actual Sends in ascending id order (see outbox.go). The phase
// boundaries are identical at every shard count, which is what the
// bit-equality property tests pin.
func (cr *clusterRun) runLockstep(ctx context.Context) {
	cfg, res := cr.cfg, cr.res
	complete := func(tick int) bool {
		all := true
		for id, mb := range cr.members {
			if mb == nil {
				continue
			}
			m := &res.Nodes[id]
			if !m.Done && mb.g.complete() {
				m.Done = true
				m.DoneTick = tick
			}
			if cr.live[id] {
				all = all && m.Done
			}
		}
		return all && !cr.ch.PendingAdds()
	}
	if complete(0) {
		res.Completed = true
		return
	}
	for tick := 1; tick <= cfg.maxTicks(); tick++ {
		select {
		case <-ctx.Done():
			res.Ticks = tick - 1
			return
		default:
		}
		ObserveTick(cr.tr, int64(tick))
		if ops := cr.ch.PopUntil(tick, cr.live); len(ops) > 0 {
			cr.contacts = NewContacts(cr.live, cr.maxN)
			for _, op := range ops {
				cr.applyLockstep(op, tick)
			}
		}
		cr.exec.Run(func(_, lo, hi int) {
			if cr.cfg.Telemetry != nil {
				// Sample before the drain so inbox depth shows the backlog
				// queued by the previous emit phase.
				for id := lo; id < hi; id++ {
					if mb := cr.members[id]; mb != nil && cr.live[id] {
						cr.cfg.Telemetry.SampleTick(id, int64(tick),
							mb.g.progress(), 0, len(cr.tr.Recv(id)), mb.view.LiveCount())
					}
				}
			}
			for id := lo; id < hi; id++ {
				mb := cr.members[id]
				if mb == nil || !cr.live[id] {
					continue
				}
				m := &res.Nodes[id]
				inbox := cr.tr.Recv(id)
				for drained := false; !drained; {
					select {
					case raw := <-inbox:
						if mb.recv(raw, int64(tick)) {
							m.Innovative++
						}
					default:
						drained = true
					}
				}
			}
		})
		if complete(tick) {
			res.Completed = true
			res.Ticks = tick
			return
		}
		cr.exec.Run(func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				if mb := cr.members[id]; mb != nil && cr.live[id] {
					mb.emit(cr.tr, cr.fanout, int64(tick), cr.ch != nil)
				}
			}
		})
		cr.flushOutboxes(int64(tick))
	}
	res.Ticks = cfg.maxTicks()
}

// flushOutboxes is the exchange barrier of a sharded tick: it replays
// every shard's deferred emissions against the real transport in
// (shard, node id, emission order) order — ascending node id, exactly
// the serial driver's send order — performing the middleware-visible
// Send, the send/drop telemetry, and the drop accounting that could
// not run in parallel. A no-op on the serial engine (outs is nil).
func (cr *clusterRun) flushOutboxes(now int64) {
	for _, ob := range cr.outs {
		for _, e := range ob.Entries() {
			mb := cr.members[e.From]
			switch e.Kind {
			case OutData:
				mb.tel.Event(e.From, now, telemetry.KindSend, int64(e.To), e.Arg, e.Bits)
			case OutHello:
				mb.tel.Event(e.From, now, telemetry.KindSendHello, int64(e.To), e.Arg, 0)
			}
			if !cr.tr.Send(e.From, e.To, e.Buf) {
				mb.m.Dropped++
				mb.tel.Event(e.From, now, telemetry.KindDrop, int64(e.To), 0, 0)
				mb.io.ring.Put(e.Buf)
			}
		}
		ob.Reset()
	}
}

// batchAdds reports whether a popped churn batch contains any
// membership-adding operation (join, restart, rejoin).
func batchAdds(ops []ChurnOp) bool {
	for _, op := range ops {
		switch op.Kind {
		case ChurnJoin, ChurnRestart, ChurnRejoin:
			return true
		}
	}
	return false
}

// tracker is the async drivers' completion accounting, redesigned for
// a changing population: instead of a fixed countdown it re-evaluates
// "is every live node done, with no membership additions pending"
// under one mutex, which node goroutines update on completion and the
// churn controller updates on every membership change.
type tracker struct {
	mu          sync.Mutex
	res         *Result
	live        []bool
	addsPending bool
	allDone     chan struct{}
	closed      bool
}

func (t *tracker) markDone(id int, g gossiper, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := &t.res.Nodes[id]
	if m.Done || !g.complete() {
		return
	}
	m.Done = true
	m.DoneAt = at
	t.check()
}

// check closes allDone when the run is complete. Callers hold mu.
func (t *tracker) check() {
	if t.closed || t.addsPending {
		return
	}
	for id, l := range t.live {
		if l && !t.res.Nodes[id].Done {
			return
		}
	}
	t.closed = true
	close(t.allDone)
}

// runAsync is the goroutine-per-node execution: ticker-paced emission
// plus an immediate push after every innovative receipt, with a churn
// controller goroutine applying membership events at At×Interval wall
// offsets — canceling crashed/leaving nodes (and joining on their
// exit before flipping liveness, so member state never has two
// owners) and spawning joiners.
func (cr *clusterRun) runAsync(ctx context.Context, start time.Time) {
	cfg := cr.cfg
	ctx, cancel := context.WithTimeout(ctx, cfg.timeout())
	defer cancel()

	tk := &tracker{res: cr.res, live: cr.live, addsPending: cr.ch.PendingAdds(), allDone: make(chan struct{})}
	cancels := make([]context.CancelFunc, cr.maxN)
	exited := make([]chan struct{}, cr.maxN)
	var leaving []atomic.Bool
	if cr.ch != nil {
		leaving = make([]atomic.Bool, cr.maxN)
	}

	var wg sync.WaitGroup
	spawnNode := func(id int, announce bool) {
		nodeCtx, nodeCancel := context.WithCancel(ctx)
		cancels[id] = nodeCancel
		stop := make(chan struct{})
		exited[id] = stop
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(stop)
			mb := cr.members[id]
			m := mb.m
			now := func() int64 { return int64(time.Since(start)) }
			if announce {
				mb.helloAll(cr.tr, false, now())
			}
			markDone := func() { tk.markDone(id, mb.g, time.Since(start)) }
			markDone() // n == 1 or a node seeded with everything
			emit := func() { mb.emit(cr.tr, cr.fanout, now(), cr.ch != nil) }
			ticker := time.NewTicker(cfg.interval())
			defer ticker.Stop()
			for {
				select {
				case <-nodeCtx.Done():
					if leaving != nil && leaving[id].Load() {
						mb.helloAll(cr.tr, true, now())
					}
					return
				case raw := <-cr.tr.Recv(id):
					if mb.recv(raw, now()) {
						m.Innovative++
						markDone()
						emit()
					}
				case <-ticker.C:
					mb.sample(cr.tr, now())
					emit()
				}
			}
		}()
	}
	for id := 0; id < cfg.N; id++ {
		spawnNode(id, false)
	}

	if cr.ch != nil {
		wg.Add(1)
		go func() { // churn controller
			defer wg.Done()
			for {
				at, ok := cr.ch.NextAt()
				if !ok {
					return
				}
				timer := time.NewTimer(time.Until(start.Add(time.Duration(at) * cfg.interval())))
				select {
				case <-ctx.Done():
					timer.Stop()
					return
				case <-timer.C:
				}
				tk.mu.Lock()
				ops := append([]ChurnOp(nil), cr.ch.PopUntil(at, tk.live)...)
				// Completion stays blocked until this batch's adds are
				// applied too: PopUntil already flipped liveness, but a
				// restart/rejoin below must reset its node's stale Done
				// before any check() may trust the live set.
				tk.addsPending = cr.ch.PendingAdds() || batchAdds(ops)
				cr.contacts = NewContacts(cr.live, cr.maxN)
				tk.mu.Unlock()
				for _, op := range ops {
					m := &cr.res.Nodes[op.ID]
					// Churn events are recorded here, where the node's
					// goroutine is provably not running (after its exit, or
					// before its spawn), preserving single-owner rings.
					tel := cr.cfg.Telemetry
					switch op.Kind {
					case ChurnCrash, ChurnLeave:
						if op.Kind == ChurnLeave {
							leaving[op.ID].Store(true)
						}
						cancels[op.ID]()
						<-exited[op.ID]
						leaving[op.ID].Store(false)
						if op.Kind == ChurnLeave {
							tel.Event(op.ID, int64(time.Since(start)), telemetry.KindLeave, 0, 0, 0)
						} else {
							tel.Event(op.ID, int64(time.Since(start)), telemetry.KindCrash, 0, 0, 0)
						}
						tk.mu.Lock()
						m.Live = false
						tk.check()
						tk.mu.Unlock()
					case ChurnJoin, ChurnRejoin:
						tk.mu.Lock()
						cr.spawn(op.ID, false, int64(time.Since(start)))
						m.Done = false
						m.JoinAt = time.Since(start)
						tk.mu.Unlock()
						tel.Event(op.ID, int64(time.Since(start)), telemetry.KindJoin, 0, 0, 0)
						spawnNode(op.ID, true)
					case ChurnRestart:
						tk.mu.Lock()
						m.Live = true
						m.JoinAt = time.Since(start)
						tk.mu.Unlock()
						tel.Event(op.ID, int64(time.Since(start)), telemetry.KindRestart, 0, 0, 0)
						spawnNode(op.ID, true)
					}
				}
				tk.mu.Lock()
				tk.addsPending = cr.ch.PendingAdds()
				tk.check() // e.g. a restarted already-done node closes the run
				tk.mu.Unlock()
			}
		}()
	}

	select {
	case <-tk.allDone:
		cr.res.Completed = true
	case <-ctx.Done():
	}
	cancel()
	wg.Wait()
}
