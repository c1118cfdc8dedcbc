package cluster

import "repro/internal/telemetry"

// The sharded lockstep engine splits every tick into parallel
// per-node phases and serial barrier phases (see runLockstep and
// DESIGN.md "Node runtime and drivers"). Emission is the phase that
// cannot run concurrently as-is: transport middlewares (loss, reorder,
// mutators, adversaries) draw from their own seeded rngs in Send-call
// order, so Sends racing across shards would consume coins in a
// nondeterministic order and change the transcript. Instead each
// shard's workers emit into a private outbox — per-node counters and
// the marshaled bytes are captured in parallel, since they are
// functions of per-node state only — and the serial exchange barrier
// replays the entries against the real transport in (shard, node id,
// emission order) order, which is exactly the ascending-id order the
// serial driver sends in. Everything order-sensitive (middleware
// draws, drop accounting, send/drop telemetry events) happens at
// replay time.
//
// A nil *outbox on a node means "send inline": the async driver and
// the shards=1 lockstep engine keep the pre-sharding path untouched.

// outEntry is one deferred Send: the arguments Node.transmit was not
// yet allowed to be called with.
type outEntry struct {
	from, to int
	// kind, arg and bits are the send's telemetry event (see Node.post).
	kind      telemetry.Kind
	arg, bits int64
	// buf is the marshaled wire bytes, drawn from the emitting node's
	// BufRing; ownership passes to the replay, which returns it to that
	// ring if the transport refuses the Send.
	buf []byte
}

// outbox collects one shard's deferred emissions for a tick. Each
// outbox is written by exactly one shard worker during the emit phase
// and drained by the serial barrier; it is reused across ticks.
type outbox struct {
	entries []outEntry
}

// add appends one deferred emission in the node's send order.
func (o *outbox) add(e outEntry) { o.entries = append(o.entries, e) }

// reset empties the outbox, keeping its capacity for the next tick.
// Buf pointers are dropped so a retained entry slab cannot pin packet
// buffers past the tick that owned them.
func (o *outbox) reset() {
	for i := range o.entries {
		o.entries[i].buf = nil
	}
	o.entries = o.entries[:0]
}
