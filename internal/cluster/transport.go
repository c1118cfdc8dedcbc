package cluster

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
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

// TickObserver is an optional Transport facet: the lockstep drivers
// (cluster and stream) call ObserveTick on Config.Transport at the
// start of every tick, so tick-aware middleware — the adversarial
// topology and packet-mutation layers in internal/hostile — advances
// its clock in sync with the driver instead of guessing from wall time.
// A middleware built on Layer forwards the call to its inner transport
// (and one with a clock of its own does so after advancing it), so a
// whole stack advances together in any stacking order. Transports
// without the facet are simply not called.
type TickObserver interface {
	ObserveTick(tick int64)
}

// Layer is what a transport middleware embeds in place of a bare
// Transport: the inner transport with its three methods promoted, plus
// the two facets a stack needs from every layer whatever the layer
// does. A decorator that embeds a bare Transport instead is opaque:
// ticks stop at it, and a tick mailbox beneath it is out of the
// lockstep driver's reach (Engine.Run rejects that stack).
type Layer struct{ Transport }

// Unwrap returns the inner transport: the walk by which Engine.Run
// finds the tick mailbox, or a wall-clock delay layer, under a stack.
func (l Layer) Unwrap() Transport { return l.Transport }

// ObserveTick implements TickObserver by forwarding: a layer without a
// clock of its own must not hide the driver's from the layers below.
func (l Layer) ObserveTick(tick int64) { ObserveTick(l.Transport, tick) }

// ObserveTick type-asserts and forwards one driver tick; the shared
// helper keeps both lockstep drivers' call sites identical.
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

// lossTransport drops each packet independently with fixed probability.
type lossTransport struct {
	Layer
	rate float64
	mu   sync.Mutex
	rng  *rand.Rand
}

// WithLoss decorates t so each Send is dropped with probability rate.
// The coin sequence is seeded, so under a single-threaded driver
// (lockstep mode) losses are fully reproducible.
func WithLoss(t Transport, rate float64, seed int64) Transport {
	if rate <= 0 {
		return t
	}
	return &lossTransport{Layer: Layer{t}, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

func (l *lossTransport) Send(from, to int, pkt []byte) bool {
	l.mu.Lock()
	drop := l.rng.Float64() < l.rate
	l.mu.Unlock()
	if drop {
		return false
	}
	return l.Transport.Send(from, to, pkt)
}

// delayTransport holds each packet for a random latency before passing
// it on. Only meaningful on a wall clock: Engine.Run rejects a lockstep
// run with this layer anywhere in its stack.
type delayTransport struct {
	Layer
	min, max time.Duration
	mu       sync.Mutex
	rng      *rand.Rand
}

// WithDelay decorates t so each packet is delivered after a uniform
// random latency in [min, max]. Send reports true optimistically; a
// delayed packet that arrives after Close is dropped by the inner
// transport.
func WithDelay(t Transport, min, max time.Duration, seed int64) Transport {
	if max <= 0 {
		return t
	}
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	return &delayTransport{Layer: Layer{t}, min: min, max: max, rng: rand.New(rand.NewSource(seed))}
}

func (d *delayTransport) Send(from, to int, pkt []byte) bool {
	d.mu.Lock()
	lat := d.min
	if d.max > d.min {
		lat += time.Duration(d.rng.Int63n(int64(d.max - d.min + 1)))
	}
	d.mu.Unlock()
	time.AfterFunc(lat, func() { d.Transport.Send(from, to, pkt) })
	return true
}

// reorderTransport swaps selected packets past later traffic using a
// one-slot hold-back buffer: a packet chosen for reordering waits until
// the next chosen packet arrives and is delivered in its place.
type reorderTransport struct {
	Layer
	rate float64
	mu   sync.Mutex
	rng  *rand.Rand
	held *heldPkt
}

type heldPkt struct {
	from, to int
	pkt      []byte
}

// WithReorder decorates t so each packet is, with probability rate,
// parked and released only when the next parked packet replaces it —
// out-of-order delivery without loss (at most one packet is parked at
// Close). Like WithDelay, Send reports true optimistically for a
// parked packet: its eventual fate belongs to a later delivery and is
// not attributed back to any sender.
func WithReorder(t Transport, rate float64, seed int64) Transport {
	if rate <= 0 {
		return t
	}
	return &reorderTransport{Layer: Layer{t}, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

func (r *reorderTransport) Send(from, to int, pkt []byte) bool {
	r.mu.Lock()
	if r.rng.Float64() >= r.rate {
		r.mu.Unlock()
		return r.Transport.Send(from, to, pkt)
	}
	release := r.held
	r.held = &heldPkt{from: from, to: to, pkt: pkt}
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
