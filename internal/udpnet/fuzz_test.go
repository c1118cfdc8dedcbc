package udpnet

import (
	"errors"
	"math/rand"
	"net"
	"testing"

	"repro/internal/token"
	"repro/internal/wire"
)

// FuzzUDPIngress feeds raw bytes through the read-loop parser exactly
// as a hostile datagram would arrive: the transport must never panic,
// must classify every rejection under a wire sentinel, and must account
// each datagram in exactly one stats bucket. The transport is built
// without its read loop so the counter assertions are race-free; the
// source address points at the discard port, so announce replies go to
// a blackhole instead of looping back.
func FuzzUDPIngress(f *testing.F) {
	const maxPacket = 512 // small cap so the fuzzer can reach the oversize path
	tr, err := newTransport(Config{ID: 0, Nodes: 4, Addr: "127.0.0.1:0", MaxPacket: maxPacket, InboxBuffer: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(tr.Close)
	src := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

	tok := token.RandomSet(1, 64, rand.New(rand.NewSource(1)))[0]
	good := wire.Packet{Env: wire.Envelope{Version: wire.Version, Type: wire.TypeToken, Sender: 1, Epoch: 2}, Token: tok}.Marshal()
	f.Add(good)
	f.Add(wire.NewHello(2, 0, wire.Hello{Peers: []uint32{0, 3}}).Marshal())
	f.Add(wire.NewAck(3, 1, wire.Ack{Watermark: 1}).Marshal())
	f.Add(wire.NewAnnounce(1, 0, wire.Announce{Op: wire.AnnouncePing, MsgID: 7}).Marshal())
	f.Add(wire.NewAnnounce(2, 0, wire.Announce{Op: wire.AnnouncePong, MsgID: 7, Addrs: []wire.AddrEntry{
		{Node: 3, Addr: "127.0.0.1:9003"},
	}}).Marshal())
	f.Add(wire.NewAnnounce(3, 0, wire.Announce{Op: wire.AnnouncePong, MsgID: 9}).Marshal())
	f.Add([]byte{})
	f.Add(good[:5])
	f.Add(good[:wire.HeaderBytes])
	f.Add(append(append([]byte(nil), good...), 0x00))                 // trailing byte
	f.Add([]byte{0x7f, byte(wire.TypeToken), 0, 0, 0, 0, 0, 0, 0, 0}) // wrong version
	f.Add([]byte{wire.Version, 0xee, 0, 0, 0, 0, 0, 0, 0, 0})         // unknown type
	f.Add([]byte{wire.Version, byte(wire.TypeAnnounce), 0, 0, 0, 0, 0, 0, 0, 0,
		9, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0}) // announce with op 9
	f.Add(make([]byte, maxPacket+1)) // oversize

	var scratch wire.Packet
	f.Fuzz(func(t *testing.T, data []byte) {
		before := tr.Stats()
		err := tr.ingest(data, src, &scratch)
		after := tr.Stats()

		if err != nil &&
			!errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrVersion) &&
			!errors.Is(err, wire.ErrType) && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("rejection not wrapped in a wire sentinel: %v", err)
		}

		if after.Datagrams != before.Datagrams+1 {
			t.Fatalf("Datagrams advanced by %d, want 1", after.Datagrams-before.Datagrams)
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
				t.Fatalf("a stats bucket went backwards: %+v -> %+v", before, after)
			}
			landed += d
		}
		if landed != 1 {
			t.Fatalf("datagram landed in %d buckets, want exactly 1: %+v -> %+v", landed, before, after)
		}
		// Rejected datagrams must land in a reject bucket and accepted ones
		// must not.
		rejected := after.DropOversize + after.DropTruncated + after.DropVersion + after.DropType + after.DropMalformed -
			(before.DropOversize + before.DropTruncated + before.DropVersion + before.DropType + before.DropMalformed)
		if (err != nil) != (rejected == 1) {
			t.Fatalf("error %v but reject delta %d", err, rejected)
		}

		// Drain so the bounded inbox doesn't turn every later gossip
		// packet into DropInboxFull.
		for {
			select {
			case b := <-tr.inbox:
				if err := wire.UnmarshalInto(new(wire.Packet), b); err != nil {
					t.Fatalf("inbox surfaced a malformed packet: %v", err)
				}
			default:
				return
			}
		}
	})
}
