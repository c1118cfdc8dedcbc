package cluster

import (
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Protocol is what differs between one-shot k-token gossip (this
// package's coded and forward gossipers) and the windowed stream
// (internal/stream): what a node absorbs, what it emits, and when it
// is finished. Everything else — membership, peer sampling, the wire
// buffers, the send path, the two drivers — is the Node shell and the
// Engine, written once. A Protocol is owned by its Node: every
// method is called by whichever goroutine (or lockstep slot) is
// driving that node, never concurrently, and reaches the network only
// through the Node's Pick, Send and Announce.
//
// The methods are exported because internal/stream implements them
// from another package; nothing outside the two protocol packages is
// meant to.
type Protocol interface {
	// Start runs once whenever the node enters a run (initial spawn,
	// join, restart), before its first packet: open whatever state lets
	// the node speak first, and settle anything already finished.
	Start()
	// Absorb ingests one gossip packet — never a hello, the shell folds
	// those into the view — and reports whether it changed the node's
	// state, the async driver's push-on-progress trigger. The packet is
	// the shell's reused scratch: copy what is kept.
	Absorb(p *wire.Packet) bool
	// Emit spends one emission slot. A full slot is the paced one (a
	// lockstep tick, an async ticker fire) and carries everything the
	// protocol sends periodically; a partial slot follows a packet that
	// made progress and carries data only.
	Emit(full bool)
	// Done reports whether the node holds everything it is owed.
	Done() bool
	// Progress is the telemetry series' rank and watermark columns.
	Progress() (rank, watermark int)
	// Restart revives persisted state after a crash (ChurnRestart).
	Restart()
	// Leave runs once before a graceful leaver's goodbye (ChurnLeave),
	// its last chance to send: hand over what would leave with the node.
	Leave()
}

// Node is the shell every gossip node runs in, whatever its Protocol:
// identity, membership view, randomness, clock, packet scratches and
// the buffer ring, counters and tracing. One owner at a time — the
// goroutine or lockstep slot driving the node — touches any of it,
// which is what keeps rings lock-free and churn restarts race-free:
// the drivers let the old owner exit before the next one starts.
//
// The exported fields are the protocol's working set; the rest is the
// runtime's.
type Node struct {
	ID int
	// View is the node's membership view: peer sampling and hello
	// bookkeeping run over it here, the stream's retirement frontier
	// reads it too.
	View *View
	// Rng is the node's seeded randomness, shared by coding coins and
	// peer choice; the draw order between them is what the lockstep
	// golden transcripts pin.
	Rng *rand.Rand
	// Now is the node's clock, the run's tick (see TickObserver), set by
	// the driver before it hands the node packets or an emission slot.
	Now int64
	// Fanout is the resolved number of peers a data emission contacts.
	Fanout int
	// Tx is the scratch a protocol fills before Send.
	Tx wire.Packet
	// M is the node's shared counter block. It outlives the node's
	// incarnations: a rejoin builds a new Node over the same counters.
	M *NodeMetrics
	// Tel traces the node's protocol events; nil is the disabled state
	// (every recording call is a nil-receiver no-op).
	Tel *telemetry.Recorder

	proto Protocol
	tr    Transport
	rx    wire.Packet
	ring  *BufRing
	// churn is true on runs with a membership schedule: only there does
	// a node with nothing to say announce itself instead.
	churn bool
	// progress is the node's last Publish, which the run's Oracle reads —
	// atomically, because under the wall-clock driver the run's clock
	// goroutine is not the node's.
	progress atomic.Int64
	// err is the first failure the protocol reported (see Fail).
	err error
}

// Fail records a failure that must abort the run — a decode that does
// not match its source. The drivers check between phases and return
// the first one.
func (nd *Node) Fail(err error) {
	if nd.err == nil {
		nd.err = err
	}
}

// Publish posts the node's progress — span rank for one-shot gossip,
// the delivery watermark for the stream — for the run's Oracle, which
// the targeted crashes and the adaptive adversary read. It is the only
// writer, so both sort by one definition of progress.
func (nd *Node) Publish(progress int) {
	nd.progress.Store(int64(progress))
}

// Pick samples a live peer for an emission, or -1 when there is none:
// exactly one View.Pick draw.
func (nd *Node) Pick() int { return nd.View.Pick(nd.Rng, nd.Now) }

// Send encodes Tx into a recycled buffer and sends it to peer.
func (nd *Node) Send(peer int) {
	buf, bits := nd.Tx.Encode(nd.ring.Get()[:0])
	nd.post(peer, bits, buf)
}

// post is the one send path: buf holds Tx's encoding and bits its
// Bits(), and from here on buf belongs to the transport. It counts the
// packet by type, traces it and Sends it; on refusal it counts and
// traces the drop and returns buf to the ring.
func (nd *Node) post(peer int, bits int, buf []byte) {
	nd.M.BitsOut += int64(bits)
	kind, arg := telemetry.KindSend, int64(nd.Tx.Env.Epoch)
	switch nd.Tx.Env.Type {
	case wire.TypeAck:
		nd.M.AckBitsOut += int64(bits)
		kind, bits = telemetry.KindSendAck, 0
	case wire.TypeHello:
		nd.M.HellosOut++
		nd.M.HelloBitsOut += int64(bits)
		kind, bits, arg = telemetry.KindSendHello, 0, 0
		if nd.Tx.Hello.Leaving {
			arg = 1
		}
	default:
		nd.M.PacketsOut++
	}
	nd.Tel.Event(nd.ID, nd.Now, kind, int64(peer), arg, int64(bits))
	if !nd.tr.Send(nd.ID, peer, buf) {
		nd.M.Dropped++
		nd.Tel.Event(nd.ID, nd.Now, telemetry.KindDrop, int64(peer), 0, 0)
		nd.ring.Put(buf)
	}
}

// recv decodes one drained inbox buffer into the rx scratch and
// recycles the buffer. Hellos end here, folded into the view (every
// hello proves its sender live; its body carries the sender's view or
// a leave announcement); anything else is the protocol's, which also
// counts it — hellos are control traffic, visible as HellosOut plus
// their BitsOut, so the in/out packet counters reconcile under churn.
func (nd *Node) recv(raw []byte) bool {
	if !DecodeRecycle(&nd.rx, nd.ring, raw) {
		return false
	}
	p := &nd.rx
	if p.Env.Type != wire.TypeHello {
		return nd.proto.Absorb(p)
	}
	sender := int(p.Env.Sender)
	if p.Hello.Leaving {
		nd.Tel.Event(nd.ID, nd.Now, telemetry.KindRecvHello, int64(sender), 1, 0)
		nd.View.Remove(sender)
		return false
	}
	nd.Tel.Event(nd.ID, nd.Now, telemetry.KindRecvHello, int64(sender), 0, 0)
	nd.View.Mark(sender, nd.Now)
	// Third-party introductions never refresh a known peer's stamp (see
	// View.Introduce), or suspicion could never evict a crashed node that
	// peers keep listing.
	nd.View.IntroducePeers(p.Hello.Peers, nd.Now)
	return false
}

// Announce is what a node with nothing to gossip yet (a joiner before
// its first packet or its frontier bootstrap) does with its emission
// slot in a churn run: one hello to one random peer, so peers learn to
// push to it even if its join-time burst was lost.
func (nd *Node) Announce() {
	if !nd.churn {
		return
	}
	if peer := nd.Pick(); peer >= 0 {
		msg, bits := nd.buildHello(false, nd.View.AppendPeers(nd.Tx.Hello.Peers[:0]))
		nd.post(peer, bits, msg)
	}
}

// buildHello fills Tx with a membership announcement listing peers
// (built in Tx.Hello.Peers' storage) and encodes it.
func (nd *Node) buildHello(leaving bool, peers []uint32) ([]byte, int) {
	nd.Tx.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeHello, Sender: uint32(nd.ID), Epoch: 0}
	nd.Tx.Hello = wire.Hello{Leaving: leaving, Peers: peers}
	return nd.Tx.Encode(nd.ring.Get()[:0])
}

// helloAll announces to every peer currently in the view: the
// join/restart introduction burst, which carries that view, or the
// graceful-leave goodbye, which carries nothing — a receiver drops the
// sender at the leave flag and never reads a goodbye's list.
//
// The burst is encoded once; each recipient gets its own exact-size
// copy, never a shared slice, because a buffer handed to Send has one
// owner from then on: middleware may rewrite it in place (hostile's
// mutator flips bits) and the receiver recycles it into its own ring.
func (nd *Node) helloAll(leaving bool) {
	// The view is the recipient list either way; only an introduction
	// also carries it (a goodbye keeps the storage and sends it empty).
	to := nd.View.AppendPeers(nd.Tx.Hello.Peers[:0])
	list := to
	if leaving {
		list = to[:0]
	}
	msg, bits := nd.buildHello(leaving, list)
	for _, pid := range to {
		if int(pid) != nd.ID {
			nd.post(int(pid), bits, slices.Clone(msg))
		}
	}
	nd.ring.Put(msg)
}

// sample records one telemetry time-series point for the node: the
// protocol's rank and watermark, the inbox backlog its driver read off
// the node's inbox, live-view size. A no-op without a recorder.
func (nd *Node) sample(inbox int) {
	if nd.Tel == nil {
		return
	}
	rank, watermark := nd.proto.Progress()
	nd.Tel.Sample(nd.ID, nd.Now, rank, watermark, inbox, nd.View.LiveCount())
}
