package cluster

import "sync/atomic"

// mailbox is the engine's own in-process fabric under the lockstep
// driver (Config.DefaultTransport): where ChanTransport gives every id
// a buffered channel, the mailbox keeps one log of the tick's accepted
// Sends and, at the barrier between the churn phase and the drain
// phase, counting-sorts it by destination into one slab, so that a
// node's inbox is a contiguous range of it. Delivery semantics are the
// channels', exactly — FIFO per destination in Send-call order, refusal
// at buffer undelivered packets, Close refuses later Sends, mail for an
// id nobody drains waits for whoever next runs under that id — which is
// what keeps every lockstep transcript what it was over channels.
//
// The contract is the lockstep tick's (runLockstep): Sends are serial —
// the churn phase's hellos, inline emission on the serial engine, the
// outbox replay on the sharded one — and fall between carry and the
// next sort; take is the drain phase's, between sort and carry, where
// distinct ids touch distinct elements and so may run on parallel shard
// workers.
type mailbox struct {
	buffer int32
	closed atomic.Bool
	// pending counts, per destination, the accepted packets not yet
	// taken: exactly the destination's entries in log, so it is both the
	// capacity check's operand and the counting sort's histogram.
	pending []int32
	// log is the accepted Sends since the last sort, in call order,
	// behind whatever the last drain phase left untaken.
	log []mail
	// slab is the last sorted log; id's inbox is slab[off[id]:off[id+1]].
	slab [][]byte
	off  []int32
}

type mail struct {
	to  int32
	buf []byte
}

func newMailbox(n, buffer int) *mailbox {
	return &mailbox{buffer: int32(max(buffer, 1)), pending: make([]int32, n), off: make([]int32, n+1)}
}

// Send implements Transport.
func (m *mailbox) Send(from, to int, pkt []byte) bool {
	if to < 0 || to >= len(m.pending) || m.pending[to] >= m.buffer || m.closed.Load() {
		return false
	}
	m.pending[to]++
	m.log = append(m.log, mail{int32(to), pkt})
	return true
}

// Recv implements Transport. The mailbox has no channels: the lockstep
// driver takes from it directly, and Engine.Run rejects every other way
// of reaching it.
func (m *mailbox) Recv(int) <-chan []byte { return nil }

// Close implements Transport.
func (m *mailbox) Close() { m.closed.Store(true) }

// sort moves the log into the slab, stably by destination. Every entry
// of the log is counted in pending, so the histogram pass of a counting
// sort is already done: off[id+1] starts as the head of id's range, is
// the scatter's cursor, and ends as the range's end — the head of the
// next.
func (m *mailbox) sort() {
	off, head := m.off, int32(0)
	off[0] = 0
	for id, p := range m.pending {
		off[id+1] = head
		head += p
	}
	if cap(m.slab) < len(m.log) {
		m.slab = make([][]byte, len(m.log), cap(m.log))
	}
	m.slab = m.slab[:len(m.log)]
	for _, e := range m.log {
		m.slab[off[e.to+1]] = e.buf
		off[e.to+1]++
	}
	clear(m.log) // the slab owns the buffers now
	m.log = m.log[:0]
}

// take hands id's sorted inbox to its drainer, which nils each slot as
// it consumes it so the slab pins no buffer past its delivery. Its
// length is the telemetry series' inbox column: len of the channel, in
// ChanTransport's terms.
func (m *mailbox) take(id int) [][]byte {
	m.pending[id] = 0
	return m.slab[m.off[id]:m.off[id+1]]
}

// carry ends the drain phase: whatever was sorted for an id that was
// not taken (crashed, left, not yet joined) goes to the head of the next
// log, in order, so it keeps counting against the id's capacity and is
// there for a restart or rejoin, as it would be in a channel.
func (m *mailbox) carry() {
	for id, p := range m.pending {
		if p == 0 {
			continue
		}
		box := m.slab[m.off[id]:m.off[id+1]]
		for i, buf := range box {
			m.log = append(m.log, mail{int32(id), buf})
			box[i] = nil
		}
	}
}
