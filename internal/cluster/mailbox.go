package cluster

import (
	"slices"
	"sync/atomic"
)

// mailbox is the engine's own in-process fabric under the lockstep
// driver (Config.DefaultTransport): where ChanTransport gives every id
// a buffered channel, the mailbox keeps one log per sender of the
// tick's accepted Sends and, at the barrier between the churn phase and
// the drain phase, counting-sorts them by destination into one slab, so
// that a node's inbox is a contiguous range of it. The delivery law: an
// inbox holds the mail carried from earlier ticks first, then the
// tick's mail by ascending sender id, each sender's in its Send order;
// a Send is refused when the destination's carried backlog has reached
// buffer (or the id is out of range, or after Close); mail for an id
// nobody drains waits for whoever next runs under that id. Neither rule
// reads anything a Send of the same phase can change, so the result is
// the same whatever order concurrent senders arrive in. Against a
// channel that is two differences: by-sender rather than Send-call
// order, and no refusal on account of the tick's own mail.
//
// The contract is the lockstep tick's (runLockstep): a sender's log is
// written only by that sender's owner — its shard worker in the emit
// phase, the driver in the serial ObserveTick and churn phases — between
// carry and the next sort; take is the drain phase's, between sort and
// carry, where distinct ids touch distinct elements.
type mailbox struct {
	buffer int32
	closed atomic.Bool
	// backlog counts, per destination, its mail in the slab from sort
	// until take, and from carry on what was not taken: the carried
	// backlog Send refuses on.
	backlog []int32
	// held is the carried mail, in destination order.
	held []mail
	// logs is, per sender, the Sends accepted since the last sort.
	logs [][]mail
	// slab is the last sorted mail; id's inbox is slab[off[id]:off[id+1]].
	slab [][]byte
	off  []int32
}

type mail struct {
	to  int32
	buf []byte
}

// newMailbox returns the mailbox of n ids, refusing at buffer carried
// packets, whose logs start with room for perTick Sends each.
func newMailbox(n, buffer, perTick int) *mailbox {
	m := &mailbox{buffer: int32(max(buffer, 1)), backlog: make([]int32, n), logs: make([][]mail, n), off: make([]int32, n+1)}
	perTick = max(perTick, 1)
	room := make([]mail, n*perTick)
	for id := range m.logs {
		m.logs[id] = room[id*perTick : id*perTick : (id+1)*perTick]
	}
	return m
}

// Send implements Transport.
func (m *mailbox) Send(from, to int, pkt []byte) bool {
	if to < 0 || to >= len(m.backlog) || from < 0 || from >= len(m.logs) || m.backlog[to] >= m.buffer || m.closed.Load() {
		return false
	}
	m.logs[from] = append(m.logs[from], mail{int32(to), pkt})
	return true
}

// Recv implements Transport. The mailbox has no channels: the lockstep
// driver takes from it directly, and Engine.Run rejects every other way
// of reaching it.
func (m *mailbox) Recv(int) <-chan []byte { return nil }

// Close implements Transport.
func (m *mailbox) Close() { m.closed.Store(true) }

// sort moves the carried mail and then every sender's log, in id order,
// into the slab, stably by destination: a counting sort whose
// off[id+1] is id's count, then the head of its range and the
// scatter's cursor, and ends as the range's end — the head of the next.
func (m *mailbox) sort() {
	off := m.off
	clear(off)
	for _, e := range m.held {
		off[e.to+1]++
	}
	for _, log := range m.logs {
		for _, e := range log {
			off[e.to+1]++
		}
	}
	head := int32(0)
	for id := range m.backlog {
		c := off[id+1]
		m.backlog[id], off[id+1] = c, head
		head += c
	}
	m.slab = slices.Grow(m.slab[:0], int(head))[:head]
	m.held = m.scatter(m.held)
	for id, log := range m.logs {
		m.logs[id] = m.scatter(log)
	}
}

// scatter places mail at its destinations' cursors and returns the
// emptied list; the slab owns the buffers now.
func (m *mailbox) scatter(list []mail) []mail {
	for _, e := range list {
		m.slab[m.off[e.to+1]] = e.buf
		m.off[e.to+1]++
	}
	clear(list)
	return list[:0]
}

// take hands id's sorted inbox to its drainer, which nils each slot as
// it consumes it so the slab pins no buffer past its delivery. Its
// length is the telemetry series' inbox column: len of the channel, in
// ChanTransport's terms.
func (m *mailbox) take(id int) [][]byte {
	m.backlog[id] = 0
	return m.slab[m.off[id]:m.off[id+1]]
}

// carry ends the drain phase: whatever was sorted for an id that was
// not taken (crashed, left, not yet joined) is held, in order, for the
// next sort, so it counts against the id's capacity and is there for a
// restart or rejoin, as it would be in a channel.
func (m *mailbox) carry() {
	for id, c := range m.backlog {
		if c == 0 {
			continue
		}
		box := m.slab[m.off[id]:m.off[id+1]]
		for i, buf := range box {
			m.held = append(m.held, mail{int32(id), buf})
			box[i] = nil
		}
	}
}
