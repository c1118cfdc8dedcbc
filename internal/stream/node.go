package stream

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/rlnc"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/wire"
)

// genOwner returns the node where token j of generation g originates.
// Origins rotate across the initial membership so every founding node
// takes sourcing turns; joiners never source primarily but may adopt
// the tokens of a departed origin (see adoptOrphans).
func genOwner(g, k, j, n int) int { return (g*k + j) % n }

// genState is one live generation at one node.
type genState struct {
	span *rlnc.Span
	// decoded is set once the span reaches full coefficient rank; the
	// span stays live for recoding to stragglers until the generation
	// retires below the cluster-wide watermark frontier.
	decoded bool
	// ackedFull[i] records that node i's ack reported full rank for
	// this generation; ackedCount counts them. Once every peer has,
	// emitting the generation is pure waste and it leaves the emission
	// rotation early, ahead of the watermark frontier retiring it.
	ackedFull  []bool
	ackedCount int
	// adopted[j] records that this node already injected token j on
	// behalf of a departed origin (see adoptOrphans), so the adoption
	// sweep does not re-encode the same rows every tick.
	adopted []bool
}

// node is the stream's cluster.Protocol: the window, ack and retirement
// state one node keeps on top of the cluster.Node shell it runs in
// (identity, view, clock, randomness, the send path). All methods are
// single-threaded per node, like the shell's: the lockstep driver calls
// them from one slot, the async driver from the node's own goroutine
// (and across a crash/restart the drivers sequence the handoff, so
// state never has two owners).
type node struct {
	// Node is the shell. Its View carries, besides peer sampling, the
	// retirement frontier: a crashed node's stale watermark stops
	// holding the frontier once suspicion evicts it.
	*cluster.Node

	n       int // initial membership (origin rotation modulus)
	maxN    int // node id space: n + churn joins
	k       int
	d       int // payload bits
	vecBits int // k + UIDBits + d, the span's column count
	window  int
	gens    int
	churn   bool
	src     Source
	deliver DeliverFunc

	// base is the retirement frontier: the oldest generation not yet
	// known to be decoded by every frontier member. Spans below base
	// are GC'd.
	base int
	// spans holds the live generations, keyed by generation number.
	spans map[int]*genState
	// spanBytes is the sum of MemoryBytes over spans (see add, retire).
	spanBytes int
	// pool holds Reset spans for reuse by future generations.
	pool []*rlnc.Span
	// marks[i] is node i's id and the highest delivery watermark learned
	// for it; marks[ID] is always this node's delivered (setDelivered).
	// unknown counts the zero marks. Once it reaches zero, marks is the
	// ack's peer list as it stands; until then emitAckInto copies the
	// nonzero marks into ackPeers.
	marks    []wire.PeerMark
	unknown  int
	ackPeers []wire.PeerMark
	// peerMin caches the minimum of marks over every other node, for
	// churnless runs only, where every id stays eligible (suspicion is
	// wired under churn alone) and the frontier is just that minimum.
	// mergeMark, the one writer of a peer's mark, clears peerMinOK when
	// it raises a mark that may have been the minimum.
	peerMin   int
	peerMinOK bool
	// delivered is the absolute watermark: generations in
	// [startGen, delivered) were decoded, verified and handed to the
	// consumer in order.
	delivered int
	// startGen is where this node's delivery obligation starts: 0 for
	// founding members, the retirement frontier learned at join time
	// for joiners (generations before it were already cluster-delivered
	// and may be unobtainable; a joiner does not re-deliver them).
	startGen int
	// bootstrapped is false for a joiner until it learns the frontier
	// from its first watermark gossip; until then it opens no
	// generations and sends no acks, only hello announcements.
	bootstrapped bool
	// cursor round-robins data emissions across the active window.
	cursor int
	// cands is the emission candidate scratch buffer.
	cands []int
	// serveQ queues catch-up requests discovered in acks: a peer
	// reporting partial rank for a generation this node already
	// retired is behind the frontier (a joiner whose bootstrap lost a
	// race, or a restarted node); the generations are re-derivable
	// from the pure Source, so the next emission slot serves them back
	// directly. Only ever non-empty in churn runs.
	serveQ []serveReq

	// m is the node's full counter block; the shell's M points at the
	// shared counters embedded in it.
	m *NodeMetrics

	// eligPrev tracks each peer's frontier eligibility between gc
	// passes, so suspicion transitions (eligible → not) can be traced.
	// Lazily allocated only when tracing a churn run; nil otherwise.
	eligPrev []bool
}

// newProtocol builds the stream state of the node running in shell nd
// over an id space of maxN; joiner marks it as needing frontier
// bootstrap. It touches per-id state only, so the initial batch spawns
// in parallel.
func newProtocol(nd *cluster.Node, cfg Config, maxN int, m *NodeMetrics, joiner bool) *node {
	s := &node{
		Node:         nd,
		n:            cfg.N,
		maxN:         maxN,
		k:            cfg.K,
		d:            cfg.PayloadBits,
		vecBits:      cfg.K + token.UIDBits + cfg.PayloadBits,
		window:       cfg.Window,
		gens:         cfg.Generations,
		churn:        cfg.Churn != nil,
		src:          cfg.Source,
		deliver:      cfg.Deliver,
		spans:        make(map[int]*genState),
		marks:        make([]wire.PeerMark, maxN),
		unknown:      maxN,
		bootstrapped: !joiner,
		m:            m,
	}
	for i := range s.marks {
		s.marks[i].Node = uint32(i)
	}
	s.Publish(s.delivered)
	return s
}

// setDelivered moves the delivery watermark and this node's mark.
func (nd *node) setDelivered(d int) {
	if nd.marks[nd.ID].Watermark == 0 && d > 0 {
		nd.unknown--
	}
	nd.delivered = d
	nd.marks[nd.ID].Watermark = uint32(d)
}

// ensureGen returns generation g's state, creating the span (from the
// pool when possible) and injecting this node's source tokens on first
// touch. It must only be called for g in [base, gens).
func (nd *node) ensureGen(g int) *genState {
	if gs, ok := nd.spans[g]; ok {
		return gs
	}
	var span *rlnc.Span
	if len(nd.pool) > 0 {
		span = nd.pool[len(nd.pool)-1]
		nd.pool = nd.pool[:len(nd.pool)-1]
	} else {
		span = rlnc.NewSpan(nd.k, token.UIDBits+nd.d)
	}
	gs := &genState{span: span}
	nd.spans[g] = gs
	nd.spanBytes += span.MemoryBytes()

	owned := false
	for j := 0; j < nd.k; j++ {
		if genOwner(g, nd.k, j, nd.n) == nd.ID {
			owned = true
			break
		}
	}
	if owned {
		toks := nd.src.Generation(g)
		for j := 0; j < nd.k; j++ {
			if genOwner(g, nd.k, j, nd.n) == nd.ID {
				nd.add(gs, rlnc.Encode(j, nd.k, cluster.TokenVec(toks[j])))
			}
		}
		nd.checkDecoded(g, gs)
	}
	if len(nd.spans) > nd.m.MaxActiveGens {
		nd.m.MaxActiveGens = len(nd.spans)
	}
	return gs
}

// add is gs.span.Add(c), counting any growth of the span into spanBytes.
func (nd *node) add(gs *genState, c rlnc.Coded) bool {
	before := gs.span.MemoryBytes()
	grew := gs.span.Add(c)
	nd.spanBytes += gs.span.MemoryBytes() - before
	return grew
}

// retire Resets generation g's span into the pool.
func (nd *node) retire(g int, gs *genState) {
	nd.spanBytes -= gs.span.MemoryBytes()
	gs.span.Reset()
	nd.pool = append(nd.pool, gs.span)
	delete(nd.spans, g)
}

// checkDecoded marks g decoded once its span has full coefficient rank
// and pushes the in-order delivery frontier as far as it now reaches.
func (nd *node) checkDecoded(g int, gs *genState) {
	if !gs.decoded && gs.span.CanDecode() {
		gs.decoded = true
	}
	nd.deliverReady()
}

// deliverReady decodes, verifies and delivers generations in order,
// advancing this node's watermark.
func (nd *node) deliverReady() {
	for nd.delivered < nd.gens {
		gs, ok := nd.spans[nd.delivered]
		if !ok || !gs.decoded {
			return
		}
		g := nd.delivered
		vecs, err := gs.span.Decode()
		if err != nil {
			nd.Fail(fmt.Errorf("stream: node %d generation %d: %w", nd.ID, g, err))
			return
		}
		toks := make([]token.Token, len(vecs))
		for j, v := range vecs {
			toks[j] = cluster.VecToken(v)
		}
		for j, want := range nd.src.Generation(g) {
			if !toks[j].Equal(want) {
				nd.Fail(fmt.Errorf("stream: node %d generation %d token %d decoded to %v, want %v",
					nd.ID, g, j, toks[j].UID, want.UID))
				return
			}
		}
		if nd.delivered == nd.startGen && nd.startGen > 0 && nd.m.CaughtUpTick == 0 {
			// First delivery of a mid-stream joiner: it has reached the
			// cluster watermark it learned at join time.
			nd.m.CaughtUpTick = int(nd.Now)
		}
		nd.setDelivered(nd.delivered + 1)
		nd.Publish(nd.delivered)
		nd.m.Delivered++
		nd.Tel.Event(nd.ID, nd.Now, telemetry.KindDeliver, int64(g), int64(nd.delivered), 0)
		if nd.deliver != nil {
			nd.deliver(nd.ID, g, toks)
		}
	}
}

// gc retires every generation below the cluster-wide watermark
// frontier: their spans are Reset into the pool and the window slides.
// The frontier is the minimum watermark over this node plus every
// *eligible* view member — dead or suspected nodes drop out, so a
// crashed node's forever-stale watermark cannot deadlock retirement;
// an unsuspected silent node still holds the frontier, which only
// delays retirement, never corrupts it.
func (nd *node) gc() {
	floor := min(nd.delivered, nd.peerFloor())
	for g := nd.base; g < floor; g++ {
		if gs, ok := nd.spans[g]; ok {
			nd.retire(g, gs)
			nd.Tel.Event(nd.ID, nd.Now, telemetry.KindRetire, int64(g), 0, 0)
		}
	}
	if floor > nd.base {
		nd.base = floor
		nd.Tel.Event(nd.ID, nd.Now, telemetry.KindFrontier, int64(floor), 0, 0)
	}
}

// peerFloor is the minimum watermark over every eligible view member
// other than this node (MaxInt when there is none). A churn run rescans
// marks against the view each time, because eligibility moves with the
// clock; a churnless run reads the cached minimum.
func (nd *node) peerFloor() int {
	if !nd.churn {
		if !nd.peerMinOK {
			nd.peerMin, nd.peerMinOK = math.MaxInt, true
			for id, pm := range nd.marks {
				if id != nd.ID && int(pm.Watermark) < nd.peerMin {
					nd.peerMin = int(pm.Watermark)
				}
			}
		}
		return nd.peerMin
	}
	// One walk of the view's eligible ids, ascending. Suspicion
	// transitions are traced by diffing eligibility between passes: every
	// id the walk skips is ineligible now. The first pass only snapshots.
	trackSusp := nd.Tel != nil
	if trackSusp && nd.eligPrev == nil {
		nd.eligPrev = make([]bool, nd.maxN)
	}
	floor, next := math.MaxInt, 0
	for id := range nd.View.EligibleIDs(nd.Now) {
		if trackSusp {
			nd.suspect(next, id)
			nd.eligPrev[id], next = true, id+1
		}
		if w := int(nd.marks[id].Watermark); id != nd.ID && w < floor {
			floor = w
		}
	}
	if trackSusp {
		nd.suspect(next, nd.maxN)
	}
	return floor
}

// suspect traces the peers of [lo, hi), none of them eligible now, that
// were at the last pass.
func (nd *node) suspect(lo, hi int) {
	for id := lo; id < hi; id++ {
		if nd.eligPrev[id] && id != nd.ID {
			nd.Tel.Event(nd.ID, nd.Now, telemetry.KindSuspect, int64(id), 0, 0)
		}
		nd.eligPrev[id] = false
	}
}

// advance retires what the frontier allows and opens every generation
// the window now admits, looping until the state is stable: opening a
// window generation can decode and deliver it on the spot (a node that
// sources a whole generation, or n = 1), which moves the frontier and
// admits the next one. A joiner that has not yet learned the frontier
// opens nothing.
func (nd *node) advance() {
	if !nd.bootstrapped {
		return
	}
	for {
		prevBase, prevDelivered := nd.base, nd.delivered
		nd.gc()
		hi := min(nd.base+nd.window, nd.gens)
		for g := nd.base; g < hi; g++ {
			nd.ensureGen(g)
		}
		if nd.base == prevBase && nd.delivered == prevDelivered {
			break
		}
	}
	nd.noteMemory()
}

// noteMemory samples the current span footprint into the peak metrics.
func (nd *node) noteMemory() {
	if nd.spanBytes > nd.m.MaxSpanBytes {
		nd.m.MaxSpanBytes = nd.spanBytes
	}
	if len(nd.spans) > nd.m.MaxActiveGens {
		nd.m.MaxActiveGens = len(nd.spans)
	}
}

// Start opens the node's initial window so origins have something to
// say before any packet arrives, and delivers whatever is
// self-contained (the n = 1 case decodes everything right here). A
// joiner, or a restarted node re-learning the frontier, opens nothing
// yet.
func (nd *node) Start() { nd.advance() }

// Done reports whether the node has delivered the whole stream (from
// its startGen onward; a joiner's obligation starts at the frontier it
// learned at join time).
func (nd *node) Done() bool { return nd.bootstrapped && nd.delivered >= nd.gens }

// Progress is the rank of the generation at the delivery watermark
// (the one the node is working on) and the watermark itself.
func (nd *node) Progress() (rank, watermark int) {
	if gs, ok := nd.spans[nd.delivered]; ok {
		rank = gs.span.Rank()
	} else if nd.delivered >= nd.gens {
		rank = nd.k // stream finished
	}
	return rank, nd.delivered
}

// Restart makes a revived node re-learn the frontier before resuming:
// the cluster may have retired generations past its persisted
// watermark while it was down, so its Done is stale too.
func (nd *node) Restart() {
	nd.bootstrapped = false
	nd.m.Done = false
}

// Leave hands nothing over: the tokens a leaver sourced are re-sourced
// from the Source by whoever adopts them (see adoptOrphans).
func (nd *node) Leave() {}

// Emit pushes fanout data packets; a full slot first adopts tokens
// orphaned by dead origins (churn runs) and ends with one ack.
func (nd *node) Emit(full bool) {
	if full {
		nd.adoptOrphans()
	}
	nd.pushData()
	if full {
		nd.pushAck()
	}
}

// bootstrap consumes the first watermark gossip a joiner (or a
// restarted node re-learning the frontier) sees: the highest watermark
// it knows is the most conservative safe starting point — any
// generation at or above it cannot have been retired anywhere
// (retirement needs every member's watermark to exceed it), and once
// this node's own startGen watermark circulates, the frontier cannot
// pass it. Generations below startGen were already delivered
// cluster-wide and may be unobtainable: a joiner skips them, and a
// persisted-restart node forfeits whatever the cluster retired while
// it was down (its own persisted watermark is in marks, so it never
// skips something it could still deliver).
func (nd *node) bootstrap() {
	// Own mark included: it is delivered, and marks never exceed gens.
	start := 0
	for _, pm := range nd.marks {
		start = max(start, int(pm.Watermark))
	}
	nd.startGen = start
	nd.setDelivered(start)
	nd.m.StartGen = start
	// Sweep persisted spans the cluster retired while this node was
	// down; base only ever moves forward.
	for g, gs := range nd.spans {
		if g < start {
			nd.retire(g, gs)
		}
	}
	if start > nd.base {
		nd.base = start
	}
	nd.bootstrapped = true
	nd.advance()
}

// Absorb ingests one data or ack packet, reporting whether it changed
// this node's state (grew a span, advanced a watermark, or
// bootstrapped a joiner) — the async driver's emit-on-progress
// trigger. The packet is the shell's reused scratch: everything
// retained (span rows, watermarks, rank bits) is copied.
func (nd *node) Absorb(p *wire.Packet) bool {
	sender := int(p.Env.Sender)
	switch p.Env.Type {
	case wire.TypeCoded:
		nd.m.PacketsIn++
		nd.Tel.Event(nd.ID, nd.Now, telemetry.KindRecv, int64(sender), int64(p.Env.Epoch), 0)
		nd.View.Mark(sender, nd.Now)
		if !nd.bootstrapped {
			nd.m.Stale++
			return false
		}
		g := int(p.Env.Epoch)
		if g < nd.base || g >= nd.gens {
			nd.m.Stale++
			return false
		}
		cd := p.Coded
		if cd.K != nd.k || cd.Vec.Len() != nd.vecBits {
			return false
		}
		gs := nd.ensureGen(g)
		if gs.decoded || !nd.add(gs, cd) {
			if nd.Tel != nil {
				nd.Tel.Event(nd.ID, nd.Now, telemetry.KindInsert, int64(g), int64(gs.span.Rank()), 0)
			}
			return false
		}
		nd.m.Innovative++
		if nd.Tel != nil {
			nd.Tel.Event(nd.ID, nd.Now, telemetry.KindInsert, int64(g), int64(gs.span.Rank()), 1)
		}
		nd.checkDecoded(g, gs)
		nd.advance()
		return true
	case wire.TypeAck:
		nd.m.AcksIn++
		nd.Tel.Event(nd.ID, nd.Now, telemetry.KindRecvAck, int64(sender), int64(p.Ack.Watermark), 0)
		nd.View.Mark(sender, nd.Now)
		changed := nd.mergeAck(sender, &p.Ack)
		if !nd.bootstrapped {
			nd.bootstrap()
			return true
		}
		for _, gr := range p.Ack.Ranks {
			nd.markRank(sender, int(gr.Gen), int(gr.Rank))
			if nd.churn && int(gr.Rank) < nd.k && int(gr.Gen) < nd.base {
				// The sender is behind the retirement frontier: it still
				// needs a generation this node retired. Without churn this
				// cannot happen (retirement requires every watermark to
				// have passed the generation), but a joiner can bootstrap
				// from a stale watermark view that trails what the cluster
				// has already retired — queue a catch-up serve, or it
				// would be starved forever (every span is gone and the
				// origin, being alive, never re-sources).
				nd.queueServe(sender, int(gr.Gen))
			}
		}
		if changed {
			nd.advance()
		}
		return changed
	}
	return false
}

// serveReq is one queued catch-up serve: re-source generation gen
// directly to peer.
type serveReq struct {
	peer, gen int
}

// queueServe records a catch-up request, deduplicating until the next
// emission slot drains the queue.
func (nd *node) queueServe(peer, gen int) {
	for _, rq := range nd.serveQ {
		if rq.peer == peer && rq.gen == gen {
			return
		}
	}
	nd.serveQ = append(nd.serveQ, serveReq{peer: peer, gen: gen})
}

// serveCatchup re-sources queued retired generations straight from the
// Source (a pure function, so no span is needed) as plain unit-row
// coded packets addressed to the straggler. Losses heal themselves:
// the straggler's next ack still shows partial rank and re-queues the
// serve.
func (nd *node) serveCatchup() {
	for _, rq := range nd.serveQ {
		toks := nd.src.Generation(rq.gen)
		for j := 0; j < nd.k; j++ {
			nd.Tx.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeCoded, Sender: uint32(nd.ID), Epoch: uint32(rq.gen)}
			nd.Tx.Coded = rlnc.Encode(j, nd.k, cluster.TokenVec(toks[j]))
			nd.Send(rq.peer)
		}
	}
	nd.serveQ = nd.serveQ[:0]
}

// markRank folds one first-person rank summary entry into the
// generation's full-rank tally; only live spans are updated (the hint
// is worthless once the generation retired, and not worth opening a
// span for). Without churn ranks never regress, so a set bit is
// permanent; under churn a rejoined node reports its wiped rank, which
// clears its bit.
func (nd *node) markRank(sender, g, rank int) {
	full := rank >= nd.k
	if !full && !nd.churn || sender < 0 || sender >= nd.maxN || sender == nd.ID {
		return
	}
	gs, ok := nd.spans[g]
	if !ok || !full && gs.ackedFull == nil {
		return
	}
	if gs.ackedFull == nil {
		gs.ackedFull = make([]bool, nd.maxN)
	}
	if gs.ackedFull[sender] != full {
		gs.ackedFull[sender] = full
		if full {
			gs.ackedCount++
		} else {
			gs.ackedCount--
		}
	}
}

// mergeAck folds the sender's watermark and every mark its ack lists
// into the view, reporting whether any rose. Nearly none does, which
// the loop tells before it calls mergeMark.
func (nd *node) mergeAck(sender int, a *wire.Ack) bool {
	changed, marks := nd.mergeMark(sender, a.Watermark), nd.marks
	for _, pm := range a.Peers {
		if uint(pm.Node) >= uint(len(marks)) || pm.Watermark > marks[pm.Node].Watermark {
			changed = nd.mergeMark(int(pm.Node), pm.Watermark) || changed
		}
	}
	return changed
}

// mergeMark folds one learned watermark into the view (pointwise max),
// clamped to gens before it is compared. It must stay inlinable.
func (nd *node) mergeMark(id int, w uint32) bool {
	if uint(id) >= uint(len(nd.marks)) || id == nd.ID {
		return false
	}
	w = min(w, uint32(nd.gens))
	old := nd.marks[id].Watermark
	if w <= old {
		return false
	}
	nd.marks[id].Watermark = w
	if old == 0 {
		nd.unknown--
	}
	if int(old) <= nd.peerMin {
		nd.peerMinOK = false
	}
	return true
}

// adoptOrphans re-sources tokens whose origin has left the view or
// fallen under suspicion: the lowest-id eligible node injects them
// from the (pure) Source so a generation can never be starved by its
// origin crashing before it shared anything. Several nodes may
// transiently disagree about who is lowest and double-inject, which
// costs nothing (identical rows are non-innovative); what matters is
// that at least one live node injects. Drivers call this once per
// tick/interval in churn runs.
func (nd *node) adoptOrphans() {
	if !nd.churn || !nd.bootstrapped {
		return
	}
	// Re-evaluate the frontier on the clock, not just on packets:
	// suspicion is a function of time, so a crashed peer's eviction can
	// unblock retirement (and open new window generations) at a moment
	// when no received packet changes any mark — without this, a fully
	// decoded window with saturated watermarks stalls forever the tick
	// the frontier's last blocker goes silent.
	nd.advance()
	if !nd.lowestEligible() {
		return
	}
	hi := min(nd.base+nd.window, nd.gens)
	progressed := false
	for g := nd.base; g < hi; g++ {
		gs, ok := nd.spans[g]
		if !ok || gs.decoded {
			continue
		}
		var toks []token.Token
		injected := false
		for j := 0; j < nd.k; j++ {
			owner := genOwner(g, nd.k, j, nd.n)
			if owner == nd.ID || nd.View.Eligible(owner, nd.Now) {
				continue
			}
			if gs.adopted == nil {
				gs.adopted = make([]bool, nd.k)
			}
			if gs.adopted[j] {
				continue
			}
			gs.adopted[j] = true
			if toks == nil {
				toks = nd.src.Generation(g)
			}
			if nd.add(gs, rlnc.Encode(j, nd.k, cluster.TokenVec(toks[j]))) {
				injected = true
			}
		}
		if injected {
			nd.checkDecoded(g, gs)
			progressed = true
		}
	}
	if progressed {
		nd.advance()
	}
}

// lowestEligible reports whether this node has the smallest id among
// the currently eligible view members — the deterministic adopter of
// orphaned origins.
func (nd *node) lowestEligible() bool {
	for id := range nd.View.EligibleIDs(nd.Now) {
		if id < nd.ID {
			return false
		}
	}
	return true
}

// emitDataInto draws one fresh coded packet from the active window into
// the node's tx scratch, round-robining across the generations that
// have anything to say. A decoded generation keeps recoding for
// stragglers until it retires.
func (nd *node) emitDataInto(p *wire.Packet) bool {
	if !nd.bootstrapped {
		return false
	}
	hi := min(nd.base+nd.window, nd.gens)
	audience := nd.View.LiveCount() - 1
	nd.cands = nd.cands[:0]
	for g := nd.base; g < hi; g++ {
		gs := nd.ensureGen(g)
		// A generation every peer has acked at full rank has no
		// audience left; skip it without waiting for retirement.
		if gs.span.Rank() > 0 && (gs.ackedCount < audience || nd.churn && !nd.allAcked(gs)) {
			nd.cands = append(nd.cands, g)
		}
	}
	if len(nd.cands) == 0 {
		return false
	}
	g := nd.cands[nd.cursor%len(nd.cands)]
	nd.cursor++
	if !nd.spans[g].span.RandomCombinationInto(&p.Coded, nd.Rng) {
		return false
	}
	p.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeCoded, Sender: uint32(nd.ID), Epoch: uint32(g)}
	return true
}

// allAcked reports whether every eligible peer has acked gs at full
// rank. Under churn the count alone cannot tell: it still holds a peer
// that left, whose place a joiner without the generation took.
func (nd *node) allAcked(gs *genState) bool {
	for id := range nd.View.EligibleIDs(nd.Now) {
		if id != nd.ID && !gs.ackedFull[id] {
			return false
		}
	}
	return true
}

// emitAckInto summarizes this node's progress into the tx scratch: its
// watermark, the span ranks of its active window, and every nonzero
// mark, which once no mark is zero is marks itself, aliased (Send
// encodes the packet before any mark can change). Until then the marks
// are copied into ackPeers, never into the scratch's storage, which may
// alias marks. Steady-state acks allocate nothing.
func (nd *node) emitAckInto(p *wire.Packet) {
	hi := min(nd.base+nd.window, nd.gens)
	p.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeAck, Sender: uint32(nd.ID), Epoch: uint32(nd.delivered)}
	ack := &p.Ack
	ack.Watermark = uint32(nd.delivered)
	ack.Ranks = ack.Ranks[:0]
	for g := nd.base; g < hi; g++ {
		if gs, ok := nd.spans[g]; ok {
			ack.Ranks = append(ack.Ranks, wire.GenRank{Gen: uint32(g), Rank: uint32(gs.span.Rank())})
		}
	}
	if nd.churn && nd.delivered < nd.gens && (nd.delivered < nd.base || nd.delivered >= hi) {
		// Always advertise the generation this node is actually stuck
		// on: a straggler whose base lags (it never learned a crashed
		// peer's watermark, say) would otherwise only report the lagging
		// window, and the peers that already retired its missing
		// generation would never learn to serve it back.
		rank := 0
		if gs, ok := nd.spans[nd.delivered]; ok {
			rank = gs.span.Rank()
		}
		ack.Ranks = append(ack.Ranks, wire.GenRank{Gen: uint32(nd.delivered), Rank: uint32(rank)})
	}
	if nd.unknown == 0 {
		ack.Peers = nd.marks
		return
	}
	// Filled by index into a slice sized once for the whole id space.
	peers := slices.Grow(nd.ackPeers[:0], len(nd.marks))[:len(nd.marks)]
	n := 0
	for _, pm := range nd.marks {
		if pm.Watermark > 0 {
			peers[n] = pm
			n++
		}
	}
	nd.ackPeers = peers
	ack.Peers = peers[:n]
}

// pushData sends up to fanout fresh coded packets to random peers. A
// node with nothing to gossip yet (a joiner awaiting bootstrap)
// announces itself instead (see cluster.Node.Announce).
func (nd *node) pushData() {
	if nd.View.LiveCount() < 2 {
		return
	}
	nd.serveCatchup()
	sent := false
	for f := 0; f < nd.Fanout; f++ {
		if !nd.emitDataInto(&nd.Tx) {
			break
		}
		peer := nd.Pick()
		if peer < 0 {
			return
		}
		sent = true
		nd.Send(peer)
	}
	if !sent {
		nd.Announce()
	}
}

// pushAck sends one progress ack to a random peer. A joiner holds its
// acks until it has bootstrapped: it has no watermark to report yet.
func (nd *node) pushAck() {
	if nd.View.LiveCount() < 2 || !nd.bootstrapped {
		return
	}
	nd.emitAckInto(&nd.Tx)
	peer := nd.Pick()
	if peer < 0 {
		return
	}
	nd.m.AcksOut++
	nd.Send(peer)
}
