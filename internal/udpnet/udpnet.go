package udpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// DefaultMaxPacket is the largest datagram accepted or sent: the UDP
// payload ceiling over IPv4. Oversized receptions are dropped and
// counted, never truncated into a half-parsed packet.
const DefaultMaxPacket = 65507

// DefaultInboxBuffer is the default gossip inbox depth. It mirrors the
// role of the kernel socket buffer: bursts beyond it are dropped and
// counted, and the gossip protocol heals the loss.
const DefaultInboxBuffer = 1024

// Config parameterizes one node's socket transport.
type Config struct {
	// ID is this node's id in [0, Nodes).
	ID int
	// Nodes is the cluster size — the address book's id space.
	Nodes int
	// Addr is the UDP bind address ("127.0.0.1:9000", ":0", …). The
	// advertised address is the bound address with an unspecified host
	// rewritten to the loopback, so ":0" works for single-machine
	// clusters out of the box.
	Addr string
	// Bootstrap is the address of any already-running peer, used by
	// BootstrapLoop to seed the address book. Empty for the first node.
	Bootstrap string
	// InboxBuffer is the gossip inbox depth (default
	// DefaultInboxBuffer).
	InboxBuffer int
	// MaxPacket caps accepted datagram size (default DefaultMaxPacket).
	MaxPacket int
}

// readBuffer is the SO_RCVBUF request on every socket (best-effort,
// the kernel may clamp it).
const readBuffer = 1 << 20

func (c Config) inboxBuffer() int {
	if c.InboxBuffer > 0 {
		return c.InboxBuffer
	}
	return DefaultInboxBuffer
}

func (c Config) maxPacket() int {
	if c.MaxPacket > 0 {
		return c.MaxPacket
	}
	return DefaultMaxPacket
}

// Stats is a snapshot of the transport's datagram accounting. Every
// datagram handed to the ingress parser lands in exactly one bucket:
// dispatched to the inbox, consumed as an announce, or dropped under
// exactly one of the drop counters — so the columns always reconcile
// with Datagrams.
type Stats struct {
	// Datagrams counts every datagram handed to the ingress parser.
	Datagrams int64
	// Gossip counts datagrams dispatched to the node's inbox.
	Gossip int64
	// Announces counts announce control packets consumed by the
	// transport (including ones whose entries were all ignored).
	Announces int64
	// DropOversize counts datagrams above MaxPacket.
	DropOversize int64
	// DropTruncated / DropVersion / DropType / DropMalformed count
	// wire-decoder rejections by sentinel kind (errors.Is on
	// wire.ErrTruncated / ErrVersion / ErrType / ErrMalformed).
	DropTruncated int64
	DropVersion   int64
	DropType      int64
	DropMalformed int64
	// DropInboxFull counts parsed gossip packets dropped because the
	// inbox was full — backpressure loss, not rejection.
	DropInboxFull int64
	// DropUnknownPeer counts Sends to ids with no address book entry.
	DropUnknownPeer int64
	// WriteErrors counts failed socket writes, and writes refused
	// because the packet is over MaxPacket.
	WriteErrors int64
}

// The accounting buckets, in Stats field order: the index of the live
// counters, of BucketNames and of Stats.Counts.
const (
	datagrams = iota
	gossip
	announces
	dropOversize
	dropTruncated
	dropVersion
	dropType
	dropMalformed
	dropInboxFull
	dropUnknownPeer
	writeErrors
	numBuckets
)

// BucketNames are the buckets' stable export names: cmd/node's metrics
// file writes them as udp_<name>, and the telemetry export's net row
// carries the values in this order.
var BucketNames = [numBuckets]string{
	"datagrams", "gossip", "announces",
	"drop_oversize", "drop_truncated", "drop_version", "drop_type",
	"drop_malformed", "drop_inbox_full", "drop_unknown_peer", "write_errors",
}

// fields maps bucket index to Stats field.
func (s *Stats) fields() [numBuckets]*int64 {
	return [numBuckets]*int64{
		&s.Datagrams, &s.Gossip, &s.Announces,
		&s.DropOversize, &s.DropTruncated, &s.DropVersion, &s.DropType,
		&s.DropMalformed, &s.DropInboxFull, &s.DropUnknownPeer, &s.WriteErrors,
	}
}

// Counts returns the buckets' values in BucketNames order.
func (s Stats) Counts() []int64 {
	out := make([]int64, numBuckets)
	for i, f := range s.fields() {
		out[i] = *f
	}
	return out
}

// stats is the live atomic counterpart of Stats.
type stats [numBuckets]atomic.Int64

func (st *stats) snapshot() Stats {
	var out Stats
	for i, f := range out.fields() {
		*f = st[i].Load()
	}
	return out
}

// Transport is one node's socket transport. It implements
// cluster.Transport, so the gossip runtimes and the fault-injection middlewares compose over it
// exactly as over a ChanTransport.
type Transport struct {
	cfg  Config
	conn *net.UDPConn

	inbox chan []byte
	st    stats

	// mu guards the address book only. The no-network-under-locks rule:
	// every conn write happens after mu is released; helpers that need
	// book contents for a packet copy them out under RLock first.
	mu     sync.RWMutex
	book   []*net.UDPAddr
	nKnown int

	// inflight correlates request MsgIDs with response waiters. Each
	// waiter channel is buffered (1) so the read loop never blocks
	// delivering a response.
	ifMu     sync.Mutex
	inflight map[uint64]chan struct{}
	msgID    atomic.Uint64

	// free recycles consumed send buffers into inbox copies (see the
	// package comment's buffer discipline).
	free chan []byte

	// bookWire caches the marshaled full-book response (bwMu-guarded),
	// stamped with the bookVer it was built from; learn bumps bookVer
	// to invalidate. Rebuilding the response per ping — an O(n)
	// snapshot, n address strings and a fresh marshal — was the 1k-run
	// collapse mode: the bootstrap node answers every joiner, its
	// per-pong cost exceeded its fair 1/n share of one core, its
	// receive queue overflowed, and joiners that never got a pong kept
	// pinging. With the cache a response is a copy plus an 8-byte
	// msgID patch. bookVer is atomic, not bwMu-guarded, so learn
	// (which holds mu) never takes bwMu — no lock-order cycle with
	// sendBook's bwMu→mu.RLock path.
	bwMu        sync.Mutex
	bookWire    []byte
	bookWireVer uint64
	bookVer     atomic.Uint64

	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Dial binds the node's socket and starts the read loop.
func Dial(cfg Config) (*Transport, error) {
	t, err := newTransport(cfg)
	if err != nil {
		return nil, err
	}
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

// newTransport binds the socket and builds the transport without
// starting the read loop — the fuzz harness drives ingest directly so
// its counter assertions are race-free.
func newTransport(cfg Config) (*Transport, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("udpnet: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Nodes {
		return nil, fmt.Errorf("udpnet: node id %d outside [0, %d)", cfg.ID, cfg.Nodes)
	}
	bind, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: bind address %q: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %q: %w", cfg.Addr, err)
	}
	_ = conn.SetReadBuffer(readBuffer) // best-effort; kernel may clamp

	t := &Transport{
		cfg:      cfg,
		conn:     conn,
		inbox:    make(chan []byte, cfg.inboxBuffer()),
		book:     make([]*net.UDPAddr, cfg.Nodes),
		inflight: make(map[uint64]chan struct{}),
		free:     make(chan []byte, 256),
	}
	t.learn(cfg.ID, t.advertiseAddr())
	return t, nil
}

// advertiseAddr is the address peers should send to: the bound
// address, with an unspecified host rewritten to the loopback.
func (t *Transport) advertiseAddr() *net.UDPAddr {
	la := t.conn.LocalAddr().(*net.UDPAddr)
	out := &net.UDPAddr{IP: la.IP, Port: la.Port, Zone: la.Zone}
	if la.IP == nil || la.IP.IsUnspecified() {
		out.IP = net.IPv4(127, 0, 0, 1)
	}
	return out
}

// LocalAddr returns the advertised host:port.
func (t *Transport) LocalAddr() string { return t.advertiseAddr().String() }

// Stats returns a snapshot of the datagram accounting.
func (t *Transport) Stats() Stats { return t.st.snapshot() }

// learn records an address for id, ignoring out-of-range ids and nil
// addresses. First write wins until the address actually changes
// (a restarted peer on a new port overwrites).
func (t *Transport) learn(id int, addr *net.UDPAddr) {
	if addr == nil || id < 0 || id >= t.cfg.Nodes {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.book[id]
	if old != nil && old.Port == addr.Port && old.Zone == addr.Zone && old.IP.Equal(addr.IP) {
		return // unchanged: don't invalidate the cached book response
	}
	if old == nil {
		t.nKnown++
	}
	t.book[id] = addr
	t.bookVer.Add(1)
}

// learnEntry parses and records one announce address entry. Known ids
// are skipped before the resolve: book entries don't change while a
// run is up (the datagram-source path in handleAnnounce refreshes a
// restarted peer), and re-resolving every entry of every full-book
// pong was a measured CPU storm during 1k-process bootstrap.
func (t *Transport) learnEntry(e wire.AddrEntry) {
	if e.Addr == "" || t.Known(int(e.Node)) {
		return
	}
	ua, err := net.ResolveUDPAddr("udp", e.Addr)
	if err != nil {
		return // a malformed entry poisons nothing but itself
	}
	t.learn(int(e.Node), ua)
}

// addrOf returns id's address, or nil when unknown.
func (t *Transport) addrOf(id int) *net.UDPAddr {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= len(t.book) {
		return nil
	}
	return t.book[id]
}

// Known reports whether the book can route to id. Bootstrap asks it;
// gossip does not, because it starts only once WaitReady reports the
// book complete.
func (t *Transport) Known(id int) bool { return t.addrOf(id) != nil }

// BookSize returns the number of known peers (including self).
func (t *Transport) BookSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nKnown
}

// Complete reports whether every node id has a book entry.
func (t *Transport) Complete() bool { return t.BookSize() == t.cfg.Nodes }

// Send implements cluster.Transport: a non-blocking, fire-and-forget
// datagram write. False means dropped — unknown peer, closed
// transport, oversized packet or kernel refusal — with UDP semantics
// either way: a true return is no delivery guarantee.
func (t *Transport) Send(from, to int, pkt []byte) bool {
	if t.closed.Load() {
		return false
	}
	if len(pkt) > t.cfg.maxPacket() {
		t.st[writeErrors].Add(1)
		return false
	}
	addr := t.addrOf(to)
	if addr == nil {
		t.st[dropUnknownPeer].Add(1)
		return false
	}
	if _, err := t.conn.WriteToUDP(pkt, addr); err != nil {
		t.st[writeErrors].Add(1)
		return false
	}
	// The kernel copied the payload; recycle the buffer into the read
	// loop's free list (ownership transferred to us by the true return).
	select {
	case t.free <- pkt[:0]:
	default:
	}
	return true
}

// Recv implements cluster.Transport. Only this node's own inbox
// exists; any other id yields a nil (forever-blocking) channel, the
// same bounds discipline as ChanTransport.
func (t *Transport) Recv(id int) <-chan []byte {
	if id != t.cfg.ID {
		return nil
	}
	return t.inbox
}

// Close stops the read loop and closes the socket. Idempotent.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		t.conn.Close()
		t.wg.Wait()
	})
}

// readLoop is the transport's single receive goroutine: read a
// datagram, ingest it, repeat. It exits when the socket closes.
func (t *Transport) readLoop() {
	defer t.wg.Done()
	// One spare byte detects datagrams above MaxPacket: the kernel
	// fills maxPacket+1 bytes only if the payload exceeded the cap.
	buf := make([]byte, t.cfg.maxPacket()+1)
	var scratch wire.Packet
	for {
		n, src, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			if t.closed.Load() {
				return
			}
			// Transient error (e.g. ECONNREFUSED surfaced from a prior
			// write on some platforms): keep serving.
			continue
		}
		_ = t.ingest(buf[:n], src, &scratch)
	}
}

// ingest accounts and dispatches one datagram — the fuzzed surface.
// Returns nil for accepted datagrams (dispatched, consumed, or dropped
// as inbox backpressure) and a wire-sentinel-wrapped error for every
// rejection; each call increments Datagrams once and at most one drop
// counter.
func (t *Transport) ingest(data []byte, src *net.UDPAddr, scratch *wire.Packet) error {
	t.st[datagrams].Add(1)
	if len(data) > t.cfg.maxPacket() {
		t.st[dropOversize].Add(1)
		return fmt.Errorf("%w: %d-byte datagram exceeds %d-byte cap", wire.ErrMalformed, len(data), t.cfg.maxPacket())
	}
	if err := wire.UnmarshalInto(scratch, data); err != nil {
		switch {
		case errors.Is(err, wire.ErrVersion):
			t.st[dropVersion].Add(1)
		case errors.Is(err, wire.ErrType):
			t.st[dropType].Add(1)
		case errors.Is(err, wire.ErrTruncated):
			t.st[dropTruncated].Add(1)
		default:
			t.st[dropMalformed].Add(1)
		}
		return err
	}
	if scratch.Env.Type == wire.TypeAnnounce {
		t.st[announces].Add(1)
		t.handleAnnounce(scratch, src)
		return nil
	}
	// Gossip payload: copy out of the read buffer (recycling a consumed
	// send buffer when one is free) and dispatch without blocking.
	var cp []byte
	select {
	case cp = <-t.free:
	default:
	}
	cp = append(cp[:0], data...)
	select {
	case t.inbox <- cp:
		t.st[gossip].Add(1)
	default:
		t.st[dropInboxFull].Add(1)
	}
	return nil
}

// handleAnnounce consumes one address-book control packet. Every
// announce teaches us the sender's socket address (the datagram source
// is ground truth) plus whatever book entries it carried; a request
// (ping) is answered with our full book, a response (pong) completes its
// MsgID's inflight waiter.
func (t *Transport) handleAnnounce(p *wire.Packet, src *net.UDPAddr) {
	a := p.Announce
	t.learn(int(p.Env.Sender), src)
	for _, e := range a.Addrs {
		t.learnEntry(e)
	}
	switch a.Op {
	case wire.AnnouncePing:
		t.sendBook(src, a.MsgID)
	case wire.AnnouncePong:
		t.ifMu.Lock()
		ch := t.inflight[a.MsgID]
		delete(t.inflight, a.MsgID)
		t.ifMu.Unlock()
		if ch != nil {
			ch <- struct{}{} // buffered; never blocks
		}
	}
}

// appendBook snapshots the address book as announce entries under
// RLock. The caller marshals and writes after release.
func (t *Transport) appendBook(dst []wire.AddrEntry) []wire.AddrEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id, addr := range t.book {
		if addr != nil {
			dst = append(dst, wire.AddrEntry{Node: uint32(id), Addr: addr.String()})
		}
	}
	return dst
}

// sendBook writes one pong carrying the full book to dst, from a cached
// marshal when the book hasn't changed. Only the msgID differs between
// responses, and it lives at a fixed offset right after the envelope and
// the op byte, so a response is one copy and an 8-byte patch.
// Lock ordering: bwMu, then the book's RLock inside appendBook; the
// write happens after both are released.
func (t *Transport) sendBook(dst *net.UDPAddr, msgID uint64) {
	t.bwMu.Lock()
	if ver := t.bookVer.Load(); t.bookWire == nil || ver != t.bookWireVer {
		a := wire.Announce{Op: wire.AnnouncePong, MsgID: msgID, Addrs: t.appendBook(nil)}
		t.bookWire = wire.NewAnnounce(t.cfg.ID, 0, a).Marshal()
		t.bookWireVer = ver
	}
	buf := append([]byte(nil), t.bookWire...)
	t.bwMu.Unlock()
	if len(buf) > t.cfg.maxPacket() {
		// A book too large for one datagram cannot be announced whole;
		// peers still converge through the per-announce sender learning,
		// but flag the write as failed for visibility.
		t.st[writeErrors].Add(1)
		return
	}
	binary.LittleEndian.PutUint64(buf[wire.HeaderBytes+1:], msgID)
	if _, err := t.conn.WriteToUDP(buf, dst); err != nil {
		t.st[writeErrors].Add(1)
	}
}

// request sends one ping to dst and waits for the correlated pong (or
// ctx). The ping carries only our own address. Requests used to carry
// the sender's whole book "for epidemic spread", which at n=1024 meant
// every bootstrap round moved O(n) entries per node per direction and
// the marshal+parse storm starved one-core runs; the responder learns
// the sender from the datagram source anyway, so requests only need to
// exist.
func (t *Transport) request(ctx context.Context, dst *net.UDPAddr) error {
	id := t.msgID.Add(1)
	ch := make(chan struct{}, 1)
	t.ifMu.Lock()
	t.inflight[id] = ch
	t.ifMu.Unlock()
	defer func() {
		t.ifMu.Lock()
		delete(t.inflight, id)
		t.ifMu.Unlock()
	}()
	ping := wire.Announce{Op: wire.AnnouncePing, MsgID: id}
	if self := t.addrOf(t.cfg.ID); self != nil {
		ping.Addrs = []wire.AddrEntry{{Node: uint32(t.cfg.ID), Addr: self.String()}}
	}
	if pkt := wire.NewAnnounce(t.cfg.ID, 0, ping); pkt.WireBytes() > t.cfg.maxPacket() {
		t.st[writeErrors].Add(1)
	} else if _, err := t.conn.WriteToUDP(pkt.Marshal(), dst); err != nil {
		t.st[writeErrors].Add(1)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-ch:
		// handleAnnounce already folded the pong's entries into the
		// book before completing the waiter.
		return nil
	}
}

// PingAddr pings addr and waits for the pong — the bootstrap handshake.
// The pong carries the peer's whole book, which handleAnnounce folds in
// before this returns.
func (t *Transport) PingAddr(ctx context.Context, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udpnet: ping address %q: %w", addr, err)
	}
	return t.request(ctx, ua)
}

// Lookup is PingAddr to the known peer via — the epidemic exchange step
// that completes books without funneling everything through the
// bootstrap node.
func (t *Transport) Lookup(ctx context.Context, via int) error {
	addr := t.addrOf(via)
	if addr == nil {
		return fmt.Errorf("udpnet: lookup via unknown peer %d", via)
	}
	return t.request(ctx, addr)
}

// BootstrapLoop fills the address book: ping the bootstrap peer, then
// exchange books with known peers round-robin, pausing `every` between
// rounds, until the book is complete or ctx ends. Run it in its own
// goroutine; WaitReady observes the book filling. The loop also serves
// as a liveness heartbeat for late joiners: a complete book ends it,
// and peers that learned us from the pings answer their own laggards.
func (t *Transport) BootstrapLoop(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	// Deterministic phase jitter: spread the nodes' rounds across one
	// period so a large cluster's first pings don't land on the
	// bootstrap peer as one synchronized burst.
	if t.cfg.Nodes > 1 {
		jitter := every * time.Duration(t.cfg.ID%64) / time.Duration(min(64, t.cfg.Nodes))
		select {
		case <-ctx.Done():
			return
		case <-time.After(jitter):
		}
	}
	cursor, round := 0, 0
	for !t.Complete() {
		if ctx.Err() != nil || t.closed.Load() {
			return
		}
		rctx, cancel := context.WithTimeout(ctx, every)
		// Ping the bootstrap peer until its pong has taught us at least
		// one address, then only as an occasional liveness retry: n-1
		// joiners re-pinging one peer every round — each answered with a
		// full-book pong — was the bootstrap-node hot spot at n=1024.
		if t.cfg.Bootstrap != "" && (t.BookSize() <= 1 || round%8 == 0) {
			_ = t.PingAddr(rctx, t.cfg.Bootstrap) // lost pings retry next round
		}
		round++
		// One book exchange with the next known non-self peer.
		for probe := 0; probe < t.cfg.Nodes; probe++ {
			id := cursor % t.cfg.Nodes
			cursor++
			if id != t.cfg.ID && t.Known(id) {
				_ = t.Lookup(rctx, id)
				break
			}
		}
		cancel()
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
	}
}

// WaitReady blocks until the address book is complete or ctx ends.
// The poll period is coarse on purpose and coarser still for big
// clusters: hundreds of processes polling a mutex at 10ms each was a
// measurable wakeup storm on one core.
func (t *Transport) WaitReady(ctx context.Context) error {
	period := 50 * time.Millisecond
	if t.cfg.Nodes > 256 {
		period = 250 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		if t.Complete() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("udpnet: address book has %d/%d entries: %w", t.BookSize(), t.cfg.Nodes, ctx.Err())
		case <-tick.C:
		}
	}
}
