package udpnet

import (
	"errors"
	"math/rand"
	"net"
	"testing"

	"repro/internal/hostile"
	"repro/internal/token"
	"repro/internal/wire"
)

// FuzzMutatedIngress runs every hostile-packet mutation recipe over the
// fuzzer's bytes and feeds each result through the read-loop parser —
// the exact composition a node faces when a peer runs -mutate: the
// datagram layer must never panic, must classify every rejection under
// a wire sentinel, and must account each mutated datagram in exactly
// one stats bucket. Sharing hostile.Mutate (rather than re-rolling
// byte recipes here) means a new mutation op is fuzzed the day it is
// added: hostile.Ops is iterated, not hand-listed.
func FuzzMutatedIngress(f *testing.F) {
	const maxPacket = 512
	tr, err := newTransport(Config{ID: 0, Nodes: 4, Addr: "127.0.0.1:0", MaxPacket: maxPacket, InboxBuffer: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(tr.Close)
	src := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

	tok := token.RandomSet(1, 64, rand.New(rand.NewSource(1)))[0]
	good := wire.Packet{Env: wire.Envelope{Version: wire.Version, Type: wire.TypeToken, Sender: 1, Epoch: 2}, Token: tok}.Marshal()
	f.Add(good, int64(1))
	f.Add(wire.NewHello(2, 5, wire.Hello{Peers: []uint32{0, 3}}).Marshal(), int64(7))
	f.Add(wire.NewAck(3, 9, wire.Ack{Watermark: 1}).Marshal(), int64(42))
	f.Add(wire.NewAnnounce(1, 0, wire.Announce{Op: wire.AnnouncePing, MsgID: 7}).Marshal(), int64(3))
	f.Add([]byte{}, int64(0))
	f.Add(good[:wire.HeaderBytes], int64(11))
	f.Add(make([]byte, maxPacket+1), int64(5)) // oversize survives mutation too

	var scratch wire.Packet
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for o := range (hostile.MutationSpec{}) { // every op, a new one too
			op := hostile.Op(o)
			// Mutate a fresh copy: OpTrunc/OpFlip work in place and the
			// fuzz engine owns data.
			mutated := hostile.Mutate(op, append([]byte(nil), data...), rng)

			before := tr.Stats()
			err := tr.ingest(mutated, src, &scratch)
			after := tr.Stats()

			if err != nil &&
				!errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrVersion) &&
				!errors.Is(err, wire.ErrType) && !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("op %v: rejection not wrapped in a wire sentinel: %v", op, err)
			}

			if after.Datagrams != before.Datagrams+1 {
				t.Fatalf("op %v: Datagrams advanced by %d, want 1", op, after.Datagrams-before.Datagrams)
			}
			buckets := []int64{
				after.Gossip - before.Gossip,
				after.Announces - before.Announces,
				after.DropOversize - before.DropOversize,
				after.DropTruncated - before.DropTruncated,
				after.DropVersion - before.DropVersion,
				after.DropType - before.DropType,
				after.DropMalformed - before.DropMalformed,
				after.DropInboxFull - before.DropInboxFull,
			}
			var landed int64
			for _, d := range buckets {
				if d < 0 {
					t.Fatalf("op %v: a stats bucket went backwards: %+v -> %+v", op, before, after)
				}
				landed += d
			}
			if landed != 1 {
				t.Fatalf("op %v: datagram landed in %d buckets, want exactly 1", op, landed)
			}
			rejected := after.DropOversize + after.DropTruncated + after.DropVersion + after.DropType + after.DropMalformed -
				(before.DropOversize + before.DropTruncated + before.DropVersion + before.DropType + before.DropMalformed)
			if (err != nil) != (rejected == 1) {
				t.Fatalf("op %v: error %v but reject delta %d", op, err, rejected)
			}
			// A flipped packet must never be accepted: the recipe
			// guarantees rejection precisely because the wire format has
			// no checksum to catch payload flips on its own.
			if op == hostile.OpFlip && len(mutated) > 0 && err == nil {
				t.Fatalf("bit-flipped packet accepted: % x", mutated)
			}

			// Drain so the bounded inbox doesn't turn every later gossip
			// packet into DropInboxFull.
			for {
				select {
				case b := <-tr.inbox:
					if err := wire.UnmarshalInto(new(wire.Packet), b); err != nil {
						t.Fatalf("inbox surfaced a malformed packet: %v", err)
					}
					continue
				default:
				}
				break
			}
		}
	})
}
