package cluster

import (
	"math/rand"
	"sync"
	"sync/atomic"
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
// Intervals elapsed under the two wall-clock drivers (runAsync,
// RunSingle) — and the driver calls ObserveTick on Config.Transport
// from one goroutine with ascending ticks: exactly once per tick, at
// its start, under lockstep (the loop itself); once per Interval,
// concurrently with Send, under the wall-clock drivers (the run's clock
// goroutine in runAsync, the node's own loop in RunSingle), where a
// late ticker can skip a tick. So a middleware keeps no clock of its
// own, and an observer with state locks it. A middleware built on Layer
// forwards the call to its inner transport (one that shadows
// ObserveTick does so itself), so a whole stack advances together in
// any stacking order. Transports without the facet are simply not
// called.
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
// finds the tick mailbox, and RunSingle an AddressedTransport, under a
// stack.
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

// Senders is a middleware's state for each sender, built by New on
// first use: keeping whatever a layer decides for a packet a function
// of its sender's own sends is what makes the decision independent of
// the order in which concurrent senders reach the layer (the sharded
// lockstep emit phase). The layer's lock guards it.
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
func senderRands(seed int64, purpose Purpose) Senders[rand.Rand] {
	return Senders[rand.Rand]{New: func(from int) *rand.Rand { return NewRand(seed, purpose, int64(from)) }}
}

// lossTransport drops each packet independently with fixed probability.
type lossTransport struct {
	Layer
	rate float64
	mu   sync.Mutex
	rngs Senders[rand.Rand]
}

// WithLoss decorates t so each Send is dropped with probability rate.
// Each sender's coins come from its own seeded stream, so a lockstep
// run's losses are reproducible at any shard count.
func WithLoss(t Transport, rate float64, seed int64) Transport {
	if rate <= 0 {
		return t
	}
	return &lossTransport{Layer: Layer{t}, rate: rate, rngs: senderRands(seed, RandLoss)}
}

func (l *lossTransport) Send(from, to int, pkt []byte) bool {
	l.mu.Lock()
	drop := l.rngs.Of(from).Float64() < l.rate
	l.mu.Unlock()
	if drop {
		return false
	}
	return l.Transport.Send(from, to, pkt)
}

// delayTransport holds each packet for a number of ticks drawn from
// its sender's stream: a queue in Send order, released from
// ObserveTick. No timers and no goroutines, so under lockstep a delayed
// run is as much a function of its seed, at any shard count, as an
// undelayed one.
type delayTransport struct {
	Layer
	min, max int64
	mu       sync.Mutex
	rngs     Senders[rand.Rand]
	now      int64
	held     []heldPkt
	due      []heldPkt // ObserveTick's scratch, the driver goroutine's
}

type heldPkt struct {
	from, to int
	pkt      []byte
	due      int64
}

// WithDelay decorates t so each packet sent during tick s reaches t
// when the driver observes tick s+d, d uniform in [min, max] ticks;
// packets released by one ObserveTick go in Send order (each sender's
// in its own order, all the tick mailbox delivers by), and d = 0 passes
// straight through. Send reports true optimistically for a held
// packet: what t says at its release is not attributed back to any
// sender, and Close drops what is still held.
func WithDelay(t Transport, min, max int, seed int64) Transport {
	if max <= 0 {
		return t
	}
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	return &delayTransport{Layer: Layer{t}, min: int64(min), max: int64(max), rngs: senderRands(seed, RandDelay)}
}

func (d *delayTransport) Send(from, to int, pkt []byte) bool {
	d.mu.Lock()
	lat := d.min + d.rngs.Of(from).Int63n(d.max-d.min+1)
	if lat > 0 {
		d.held = append(d.held, heldPkt{from, to, pkt, d.now + lat})
	}
	d.mu.Unlock()
	return lat > 0 || d.Transport.Send(from, to, pkt)
}

// ObserveTick implements TickObserver: the stack below advances first,
// then receives what has fallen due.
func (d *delayTransport) ObserveTick(tick int64) {
	ObserveTick(d.Transport, tick)
	d.mu.Lock()
	d.now = tick
	keep := d.held[:0]
	for _, p := range d.held {
		if p.due <= tick {
			d.due = append(d.due, p)
		} else {
			keep = append(keep, p)
		}
	}
	clear(d.held[len(keep):])
	d.held = keep
	d.mu.Unlock()
	for _, p := range d.due {
		d.Transport.Send(p.from, p.to, p.pkt)
	}
	clear(d.due)
	d.due = d.due[:0]
}

func (d *delayTransport) Close() {
	d.mu.Lock()
	d.held = nil
	d.mu.Unlock()
	d.Transport.Close()
}

// reorderTransport swaps selected packets past later traffic using a
// one-slot hold-back buffer per sender: a packet chosen for reordering
// waits until its sender's next chosen packet arrives and is delivered
// in its place.
type reorderTransport struct {
	Layer
	rate    float64
	mu      sync.Mutex
	senders Senders[reorderSlot]
}

type reorderSlot struct {
	rng  *rand.Rand
	held *heldPkt
}

// WithReorder decorates t so each packet is, with probability rate
// drawn from its sender's stream, parked and released only when the
// sender's next parked packet replaces it — out-of-order delivery
// without loss (at most one packet per sender is parked at Close). Like
// WithDelay, Send reports true optimistically for a parked packet: its
// eventual fate belongs to a later delivery and is not attributed back
// to any sender.
func WithReorder(t Transport, rate float64, seed int64) Transport {
	if rate <= 0 {
		return t
	}
	return &reorderTransport{Layer: Layer{t}, rate: rate, senders: Senders[reorderSlot]{New: func(from int) *reorderSlot {
		return &reorderSlot{rng: NewRand(seed, RandReorder, int64(from))}
	}}}
}

func (r *reorderTransport) Send(from, to int, pkt []byte) bool {
	r.mu.Lock()
	s := r.senders.Of(from)
	if s.rng.Float64() >= r.rate {
		r.mu.Unlock()
		return r.Transport.Send(from, to, pkt)
	}
	release := s.held
	s.held = &heldPkt{from: from, to: to, pkt: pkt}
	r.mu.Unlock()
	if release != nil {
		r.Transport.Send(release.from, release.to, release.pkt)
	}
	return true
}

// partitionTransport blocks traffic across a caller-defined cut.
type partitionTransport struct {
	Layer
	blocked func(from, to int) bool
}

// WithPartition decorates t so Sends for which blocked(from, to)
// returns true are dropped. The predicate is consulted on every Send
// and must be safe for concurrent use; flipping it heals or splits the
// cluster mid-run.
func WithPartition(t Transport, blocked func(from, to int) bool) Transport {
	return &partitionTransport{Layer: Layer{t}, blocked: blocked}
}

func (p *partitionTransport) Send(from, to int, pkt []byte) bool {
	if p.blocked(from, to) {
		return false
	}
	return p.Transport.Send(from, to, pkt)
}
