package cluster

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/keyed"
)

// Transport moves serialized packets between cluster nodes. The runtime
// only ever talks to this interface, so tests and experiments can slide
// loss, delay, reordering and partitions between the gossip loops and
// the underlying delivery without the loops noticing.
//
// Implementations must make Send safe for concurrent use and
// non-blocking: gossip loops fire and forget. A false return means the
// packet was dropped (lossy decorator, partition, full inbox, closed
// transport); UDP-style semantics, no retransmission.
//
// These three methods are the whole interface, and what a supplied
// transport (ChanTransport, a udpnet socket or mesh, any decorator) is
// driven through by every driver. The one fabric that is not drained
// through Recv is the engine's own under the lockstep driver, the tick
// mailbox behind Config.DefaultTransport, which the driver reaches
// beneath a middleware stack through Layer.Unwrap.
type Transport interface {
	// Send attempts to deliver pkt to node to's inbox, reporting whether
	// it was accepted for (eventual) delivery.
	Send(from, to int, pkt []byte) bool
	// Recv returns node id's inbox channel. The channel is never closed;
	// receivers stop via their context. Nil means id has no channel inbox
	// here: an id out of range, or the tick mailbox, which has none.
	Recv(id int) <-chan []byte
	// Close stops delivery: subsequent (and in-flight delayed) Sends are
	// dropped. Close is idempotent.
	Close()
}

// TickObserver is an optional Transport facet, and the whole clock
// contract: the tick is the only unit of time above the socket and the
// driver its only source. Node.Now, every view stamp, churn instant and
// telemetry stamp count the same ticks — the lockstep tick, or whole
// Intervals elapsed under the wall-clock driver (runAsync, which
// RunSingle runs too) — and the driver calls ObserveTick on
// Config.Transport from one goroutine with ascending ticks: exactly once
// per tick, at its start, under lockstep (the loop itself); once per
// Interval, concurrently with Send, under the wall-clock driver (the
// run's clock goroutine), where a late ticker can skip a tick. So a
// middleware keeps no clock of its own, and an observer with state
// locks it. A middleware built on Layer forwards the call to its inner
// transport (one that shadows ObserveTick does so itself), so a whole
// stack advances together in any stacking order. Transports without the
// facet are simply not called.
type TickObserver interface {
	ObserveTick(tick int64)
}

// Layer is what a transport middleware embeds in place of a bare
// Transport: the inner transport with its three methods promoted, plus
// the two facets a stack needs from every layer whatever the layer
// does. A decorator that embeds a bare Transport instead is opaque:
// ticks stop at it, and a tick mailbox beneath it is out of the
// lockstep driver's reach (Engine.Run rejects that stack). Over the
// mailbox every shard of the emit phase Sends at once, so whatever a
// layer decides for a packet must follow from its sender's own sends
// and the tick alone (Senders).
type Layer struct{ Transport }

// Unwrap returns the inner transport: the walk by which Engine.Run
// finds the tick mailbox under a stack.
func (l Layer) Unwrap() Transport { return l.Transport }

// ObserveTick implements TickObserver by forwarding: a layer without a
// clock of its own must not hide the driver's from the layers below.
func (l Layer) ObserveTick(tick int64) { ObserveTick(l.Transport, tick) }

// ObserveTick type-asserts and forwards one driver tick.
func ObserveTick(t Transport, tick int64) {
	if ob, ok := t.(TickObserver); ok {
		ob.ObserveTick(tick)
	}
}

// watch hands a stack the run it carries, as ObserveTick hands it a
// tick: every Schedule in it gives o to its rules (Rule.Watch), and a
// Layer forwards it down.
func watch(t Transport, o Oracle) {
	if w, ok := t.(interface{ watch(Oracle) }); ok {
		w.watch(o)
	}
}

func (l Layer) watch(o Oracle) { watch(l.Transport, o) }

// ChanTransport is the in-process transport: one buffered channel per
// node. A Send to a full inbox drops the packet — backpressure shows up
// as loss, exactly as on a saturated datagram socket.
type ChanTransport struct {
	inboxes []chan []byte
	closed  atomic.Bool
}

// NewChanTransport returns a transport for n nodes with the given
// per-inbox buffer (minimum 1).
func NewChanTransport(n, buffer int) *ChanTransport {
	if buffer < 1 {
		buffer = 1
	}
	t := &ChanTransport{inboxes: make([]chan []byte, n)}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan []byte, buffer)
	}
	return t
}

// Send implements Transport.
func (t *ChanTransport) Send(from, to int, pkt []byte) bool {
	if to < 0 || to >= len(t.inboxes) || t.closed.Load() {
		return false
	}
	select {
	case t.inboxes[to] <- pkt:
		return true
	default:
		return false
	}
}

// Recv implements Transport. An id outside [0, n) returns a nil
// channel — which blocks forever on receive, the UDP-equivalent of
// listening on an address nobody sends to — mirroring the bounds
// behavior of Send (which drops) instead of panicking.
func (t *ChanTransport) Recv(id int) <-chan []byte {
	if id < 0 || id >= len(t.inboxes) {
		return nil
	}
	return t.inboxes[id]
}

// Close implements Transport.
func (t *ChanTransport) Close() { t.closed.Store(true) }

// Senders is a rule's state for each sender, built by New on first
// use: keeping whatever a rule decides for a packet a function of its
// sender's own sends is what makes the decision independent of the
// order in which concurrent senders reach it (the sharded lockstep emit
// phase). The schedule's lock guards it.
type Senders[T any] struct {
	New   func(from int) *T
	slots []*T
}

// Of returns from's state.
func (s *Senders[T]) Of(from int) *T {
	if from >= len(s.slots) {
		s.slots = append(s.slots, make([]*T, from+1-len(s.slots))...)
	}
	if s.slots[from] == nil {
		s.slots[from] = s.New(from)
	}
	return s.slots[from]
}

// senderRands is one stream per sender, keyed (seed, purpose, sender).
func senderRands(seed int64, purpose keyed.Purpose) Senders[rand.Rand] {
	return Senders[rand.Rand]{New: func(from int) *rand.Rand { return keyed.Rand(seed, purpose, int64(from)) }}
}

// Schedule is a run's faults: the one layer that applies loss, delay,
// reordering, partitions, packet mutation and a topology adversary,
// each a Rule, under one lock and one tick. A packet passes the rules
// from the top (the last added) down, each of which may rewrite it,
// until one drops it with a Cause, holds it some ticks in the
// due-queue, or parks it in the hold-back, one slot per rule and
// sender, until that sender's next packet parked there takes its
// place. A released or an injected packet (a duplicate, a replay)
// passes only the rules below the one that produced it, in the order
// release, injected, original; the due-queue is released after the
// tick has reached the transport below, innermost rule first, each
// rule's in Send order. So a schedule does to every packet what a
// stack of one layer per rule would. What reaches the bottom is handed
// on once the lock is free. Send reports the inner transport's answer,
// false for a drop and true for a held or parked packet, whose fate is
// nobody's to hear. Close drops what is held, and every later Send.
type Schedule struct {
	Layer
	rules []Rule // innermost first

	mu     sync.Mutex
	closed bool
	tick   int64
	due    []pending
	parked map[[2]int]pending // by rule, sender
	ledger Ledger
}

// Rule is one fault of a Schedule. Decide is asked, under the
// schedule's lock, for each packet reaching the rule; Observe, if set,
// sees each tick first, top rule first. A rule's verdict must follow
// from its sender's own earlier packets and the tick (keep per-sender
// state in Senders), so that it does not depend on the order in which
// concurrent senders arrive.
type Rule struct {
	Decide  func(from, to int, pkt []byte, tick int64) Verdict
	Observe func(tick int64)
	// Watch, if set, is handed the run once, under the lock, when its
	// first tick has been observed.
	Watch func(Oracle)
}

// Oracle is what a rule may see of the run it faults, and what the
// targeted crashes rank by: the run itself, read where it is clocked
// (a rule's Observe, the churner), never a copy.
type Oracle interface {
	Live(id int) bool    // spawned and in the run's live set
	Progress(id int) int // the last Node.Publish; 0 if never spawned
}

// Verdict is a rule's answer for one packet; the zero Verdict passes
// it on. Four words at most, so that it is returned in registers: a
// lossy Send asks for one.
type Verdict struct {
	Act   Act
	Cause Cause  // why Drop drops it
	Delay int32  // how many ticks Hold holds it
	Pkt   []byte // Pass: if set, the bytes to pass on; Inject: the packet to pass on first
}

// Act is what a rule does with a packet.
type Act uint8

const (
	Pass   Act = iota // pass it on
	Drop              // drop it
	Hold              // hold it in the due-queue
	Park              // park it in the hold-back
	Inject            // pass Pkt on, then it
)

// Cause is why a schedule dropped a packet.
type Cause uint8

const (
	DropLoss Cause = iota + 1
	DropPartition
	DropAdversary
	DropClosed // sent after Close, or held when it came
	numCauses
)

// Ledger is a schedule's account: every packet offered to Send or
// injected by a rule was handed to the inner transport, dropped or is
// held, so Offered+Injected = Handed + the drops + Held.
type Ledger struct {
	Offered, Injected, Handed, Held int64
	Dropped                         [numCauses]int64 // by Cause
}

// pending is a packet held, or on its way down: rules[:below] are still
// to pass.
type pending struct {
	from, to int
	pkt      []byte
	below    int
	due      int64
}

// WithRule returns a schedule of r over t, above t's own rules when t is
// a Schedule (which the result then supersedes).
func WithRule(t Transport, r Rule) Transport {
	s := &Schedule{Layer: Layer{t}, parked: map[[2]int]pending{}}
	if in, ok := t.(*Schedule); ok {
		s.Layer, s.rules = in.Layer, slices.Clip(in.rules)
	}
	s.rules = append(s.rules, r)
	return s
}

// Send implements Transport.
func (s *Schedule) Send(from, to int, pkt []byte) bool {
	var out []pending
	fate := Drop
	s.mu.Lock()
	s.ledger.Offered++
	if s.closed {
		s.ledger.Dropped[DropClosed]++
	} else {
		pkt, out, fate = s.pass(from, to, pkt, len(s.rules), nil)
	}
	s.mu.Unlock()
	for _, q := range out {
		s.Transport.Send(q.from, q.to, q.pkt)
	}
	if fate == Pass {
		return s.Transport.Send(from, to, pkt)
	}
	return fate != Drop
}

// pass takes a packet down the rules below below and returns its bytes
// as they came out at the bottom, what became of it (Pass: it reached
// the bottom), and out grown by what it released or injected on the
// way, which goes first. The caller holds the lock.
func (s *Schedule) pass(from, to int, pkt []byte, below int, out []pending) ([]byte, []pending, Act) {
	for below > 0 {
		below--
		switch v := s.rules[below].Decide(from, to, pkt, s.tick); v.Act {
		case Drop:
			s.ledger.Dropped[v.Cause]++
			return pkt, out, Drop
		case Hold:
			s.due = append(s.due, pending{from, to, pkt, below, s.tick + int64(v.Delay)})
			return pkt, out, Hold
		case Park:
			k := [2]int{below, from}
			prev, ok := s.parked[k]
			if s.parked[k] = (pending{from, to, pkt, below, 0}); ok {
				out = s.down(prev, out)
			}
			return pkt, out, Park
		case Inject:
			s.ledger.Injected++
			out = s.down(pending{from, to, v.Pkt, below, 0}, out)
		default:
			if v.Pkt != nil {
				pkt = v.Pkt
			}
		}
	}
	s.ledger.Handed++
	return pkt, out, Pass
}

// down passes p and appends it to out if it reaches the bottom.
func (s *Schedule) down(p pending, out []pending) []pending {
	pkt, out, fate := s.pass(p.from, p.to, p.pkt, p.below, out)
	if fate == Pass {
		out = append(out, pending{from: p.from, to: p.to, pkt: pkt})
	}
	return out
}

// ObserveTick implements TickObserver.
func (s *Schedule) ObserveTick(tick int64) {
	s.mu.Lock()
	s.tick = max(s.tick, tick)
	for i := len(s.rules) - 1; i >= 0; i-- {
		if s.rules[i].Observe != nil {
			s.rules[i].Observe(s.tick)
		}
	}
	s.mu.Unlock()
	ObserveTick(s.Transport, tick)
	var due, out []pending
	s.mu.Lock()
	s.due = slices.DeleteFunc(s.due, func(p pending) bool {
		if p.due <= s.tick {
			due = append(due, p)
		}
		return p.due <= s.tick
	})
	slices.SortStableFunc(due, func(a, b pending) int { return a.below - b.below })
	for _, p := range due {
		out = s.down(p, out)
	}
	s.mu.Unlock()
	for _, p := range out {
		s.Transport.Send(p.from, p.to, p.pkt)
	}
}

func (s *Schedule) watch(o Oracle) {
	s.mu.Lock()
	for _, r := range s.rules {
		if r.Watch != nil {
			r.Watch(o)
		}
	}
	s.mu.Unlock()
	watch(s.Transport, o)
}

// Close implements Transport.
func (s *Schedule) Close() {
	s.mu.Lock()
	s.closed = true
	s.ledger.Dropped[DropClosed] += int64(len(s.due) + len(s.parked))
	s.due = nil
	clear(s.parked)
	s.mu.Unlock()
	s.Transport.Close()
}

// Ledger returns the schedule's account so far.
func (s *Schedule) Ledger() Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.ledger
	l.Held = int64(len(s.due) + len(s.parked))
	return l
}

// WithLoss drops each packet with probability rate, drawn from its
// sender's stream, so a lockstep run's losses are reproducible at any
// shard count.
func WithLoss(t Transport, rate float64, seed int64) Transport {
	if rate <= 0 {
		return t
	}
	rngs := senderRands(seed, keyed.Loss)
	return WithRule(t, Rule{Decide: func(from, _ int, _ []byte, _ int64) Verdict {
		if rngs.Of(from).Float64() < rate {
			return Verdict{Act: Drop, Cause: DropLoss}
		}
		return Verdict{}
	}})
}

// WithDelay holds each packet sent during tick s until tick s+d, d
// uniform in [lo, hi] and drawn from its sender's stream; d = 0 passes
// it on. A queue the driver's ticks release, no timers, so under
// lockstep a delayed run is as much a function of its seed, at any
// shard count, as an undelayed one.
func WithDelay(t Transport, lo, hi int, seed int64) Transport {
	if hi <= 0 {
		return t
	}
	lo = max(lo, 0)
	hi = max(hi, lo)
	rngs := senderRands(seed, keyed.Delay)
	return WithRule(t, Rule{Decide: func(from, _ int, _ []byte, _ int64) Verdict {
		if d := int64(lo) + rngs.Of(from).Int63n(int64(hi-lo+1)); d > 0 {
			return Verdict{Act: Hold, Delay: int32(d)}
		}
		return Verdict{}
	}})
}

// WithReorder parks each packet, with probability rate drawn from its
// sender's stream, until the sender's next parked packet replaces it:
// out-of-order delivery without loss.
func WithReorder(t Transport, rate float64, seed int64) Transport {
	if rate <= 0 {
		return t
	}
	rngs := senderRands(seed, keyed.Reorder)
	return WithRule(t, Rule{Decide: func(from, _ int, _ []byte, _ int64) Verdict {
		if rngs.Of(from).Float64() < rate {
			return Verdict{Act: Park}
		}
		return Verdict{}
	}})
}

// WithPartition drops the packets for which blocked(from, to) is true.
// Flipping the predicate heals or splits the cluster mid-run.
func WithPartition(t Transport, blocked func(from, to int) bool) Transport {
	return WithRule(t, Rule{Decide: func(from, to int, _ []byte, _ int64) Verdict {
		if blocked(from, to) {
			return Verdict{Act: Drop, Cause: DropPartition}
		}
		return Verdict{}
	}})
}
