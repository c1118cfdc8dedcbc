package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// scratch state shared across fuzz iterations: reusing one Packet and
// one buffer across decodes is exactly the hot-path usage pattern the
// Into/Append APIs exist for, so the fuzzer exercises storage-reuse
// bugs (stale slices, missed truncation) for free.
var (
	scratch    Packet
	scratchBuf []byte
)

// FuzzWireRoundTrip checks both halves of the codec contract:
//
//  1. decoder-first: any byte string the decoder accepts re-marshals to
//     the identical bytes (accepted encodings are canonical);
//  2. encoder-first: a packet built from the fuzz input survives
//     Marshal → Unmarshal unchanged.
func FuzzWireRoundTrip(f *testing.F) {
	rng := func() func() uint64 {
		s := uint64(0x9e3779b97f4a7c15)
		return func() uint64 { s += 0x9e3779b97f4a7c15; return s * 0xbf58476d1ce4e5b9 }
	}()
	seedCoded := NewCoded(3, 7, rlnc.Encode(1, 4, gf.RandomBitVec(12, rng))).Marshal()
	seedToken := NewToken(1, 2, token.Token{UID: token.NewUID(5, 6), Payload: gf.RandomBitVec(30, rng)}).Marshal()
	seedAck := NewAck(2, 9, Ack{
		Watermark: 4,
		Ranks:     []GenRank{{Gen: 4, Rank: 3}, {Gen: 5, Rank: 0}},
		Frontier:  4,
		Planes:    [][]uint64{{0b10, 1 << 9}, {0b11, 0}},
	}).Marshal()
	seedVector := NewAck(2, 9, Ack{
		Watermark: 4,
		Ranks:     []GenRank{{Gen: 4, Rank: 3}, {Gen: 5, Rank: 0}},
		Peers:     []PeerMark{{Node: 0, Watermark: 4}, {Node: 1, Watermark: 6}},
	}).Marshal()
	seedHello := NewHello(4, 1, Hello{Leaving: true, Peers: []uint32{0, 2, 5}}).Marshal()
	seedAnnounce := NewAnnounce(0, 3, Announce{Op: AnnouncePong, MsgID: 17, Addrs: []AddrEntry{
		{Node: 0, Addr: "127.0.0.1:9000"},
		{Node: 2, Addr: "[::1]:9002"},
	}}).Marshal()
	f.Add(seedCoded)
	f.Add(seedToken)
	f.Add(seedAck)
	f.Add(seedVector)
	f.Add(seedHello)
	f.Add(seedAnnounce)
	f.Add(NewAck(0, 0, Ack{}).Marshal())
	f.Add(NewHello(0, 0, Hello{}).Marshal())
	f.Add(NewAnnounce(0, 0, Announce{Op: AnnouncePing, MsgID: 1}).Marshal())
	// Lists of more than 127 runs, whose two-byte run count the encoder
	// puts in ahead of runs already written, and marks of 0x80 and up.
	many := apart(0x81)
	marks := make([]PeerMark, len(many))
	for i, id := range many {
		marks[i] = PeerMark{Node: id, Watermark: uint32(0x7e + i)}
	}
	f.Add(NewHello(3, 0, Hello{Peers: many}).Marshal())
	f.Add(NewAck(3, 1, Ack{Watermark: 0x90, Peers: marks}).Marshal())
	// The form's and the planes' canonical form broken each way it can
	// be: a form between planes and vector, an empty vector, more than 32
	// planes, a zero top plane, a zero last byte in every plane, planes cut
	// short and planes past the entry cap (an ack of watermark 1, no
	// ranks, then the form, frontier 2 and the planes).
	ackOf := func(form byte, planes ...byte) []byte {
		return append(append(NewAck(2, 9, Ack{}).Marshal()[:HeaderBytes], 1, 0, form, 2), planes...)
	}
	f.Add(ackOf(0x40))
	f.Add(ackOf(0x80, 0))
	f.Add(ackOf(33, 1, 1))
	f.Add(ackOf(2, 1, 1, 0))
	f.Add(ackOf(1, 2, 1, 0))
	f.Add(ackOf(2, 2, 1, 1, 1))
	f.Add(ackOf(1, 0x81, 0x40, 1))
	f.Add([]byte{})
	f.Add([]byte{Version, byte(TypeCoded), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder-first.
		p, err := Unmarshal(data)
		if err == nil {
			out := p.Marshal()
			if !bytes.Equal(out, data) {
				t.Fatalf("accepted %x but re-marshaled %x", data, out)
			}
			if p.Bits() < 0 {
				t.Fatalf("negative Bits %d", p.Bits())
			}
			checkEncode(t, &p, data)
		} else {
			// Every rejection must be classifiable by kind: ad-hoc error
			// strings are not an API, the wrapped sentinels are.
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrType) && !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejection not wrapped in a wire sentinel: %v", err)
			}
		}

		// UnmarshalInto must accept and reject exactly the same inputs as
		// Unmarshal, including when its scratch packet carries stale
		// storage from a previous (different-typed) decode.
		intoErr := UnmarshalInto(&scratch, data)
		if (intoErr == nil) != (err == nil) {
			t.Fatalf("UnmarshalInto and Unmarshal disagree on %x: %v vs %v", data, intoErr, err)
		}
		if intoErr == nil {
			out := scratch.AppendTo(scratchBuf[:0])
			if !bytes.Equal(out, data) {
				t.Fatalf("scratch decode of %x re-marshaled %x", data, out)
			}
			scratchBuf = out
		}

		// Encoder-first: derive a structured packet from the raw input.
		if len(data) < 12 {
			return
		}
		sender := int(binary.LittleEndian.Uint32(data[0:4]) % (1 << 20))
		epoch := int(binary.LittleEndian.Uint32(data[4:8]) % (1 << 20))
		bits := int(data[8]) + int(data[9]) // 0..510
		body := data[12:]
		switch data[10] % 5 {
		case 0:
			k := bits / 2
			vec := bitsFrom(body, bits)
			p = NewCoded(sender, epoch, rlnc.Coded{K: k, Vec: vec})
		case 1:
			uid := token.UID(binary.LittleEndian.Uint64(data[0:8]))
			p = NewToken(sender, epoch, token.Token{UID: uid, Payload: bitsFrom(body, bits)})
		case 3:
			h := Hello{Leaving: data[11]&1 == 1}
			for i := 0; i+4 <= len(body) && i < 4*16; i += 4 {
				h.Peers = append(h.Peers, binary.LittleEndian.Uint32(body[i:i+4]))
			}
			p = NewHello(sender, epoch, h)
		case 4:
			a := Announce{
				Op:    AnnounceOp(data[11] % 4),
				MsgID: binary.LittleEndian.Uint64(data[0:8]),
			}
			for i := 0; i+5 <= len(body) && i < 5*16; i += 5 {
				alen := int(body[i+4]) % (MaxAddrBytes + 1)
				addr := make([]byte, alen)
				for j := range addr {
					addr[j] = 'a' + body[(i+j)%len(body)]%26
				}
				a.Addrs = append(a.Addrs, AddrEntry{
					Node: binary.LittleEndian.Uint32(body[i : i+4]),
					Addr: string(addr),
				})
			}
			p = NewAnnounce(sender, epoch, a)
		default:
			a := Ack{Watermark: uint32(data[11])}
			for i := 0; i+8 <= len(body) && i < 8*16; i += 8 {
				e := body[i : i+8]
				if i%16 == 0 {
					a.Ranks = append(a.Ranks, GenRank{
						Gen:  binary.LittleEndian.Uint32(e[0:4]),
						Rank: binary.LittleEndian.Uint32(e[4:8]),
					})
				} else {
					a.Peers = append(a.Peers, PeerMark{
						Node:      binary.LittleEndian.Uint32(e[0:4]),
						Watermark: binary.LittleEndian.Uint32(e[4:8]),
					})
				}
			}
			if data[8]&1 == 0 { // the same marks as planes, the stream's form
				a.Frontier, a.Planes, a.Peers = uint32(data[9]), planesOf(a.Peers), nil
			}
			p = NewAck(sender, epoch, a)
		}
		raw := p.Marshal()
		checkEncode(t, &p, raw)
		got, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("marshal of valid packet rejected: %v", err)
		}
		if got.Env != p.Env || got.Bits() != p.Bits() {
			t.Fatalf("envelope or size changed: %+v -> %+v", p, got)
		}
		switch p.Env.Type {
		case TypeCoded:
			if got.Coded.K != p.Coded.K || !got.Coded.Vec.Equal(p.Coded.Vec) {
				t.Fatal("coded body changed")
			}
		case TypeToken:
			if !got.Token.Equal(p.Token) {
				t.Fatal("token body changed")
			}
		case TypeAck:
			if got.Ack.Watermark != p.Ack.Watermark || got.Ack.Frontier != p.Ack.Frontier ||
				len(got.Ack.Ranks) != len(p.Ack.Ranks) || len(got.Ack.Peers) != len(p.Ack.Peers) ||
				!slices.Equal(offsets(got.Ack.Planes), offsets(p.Ack.Planes)) {
				t.Fatal("ack body changed")
			}
		case TypeHello:
			if got.Hello.Leaving != p.Hello.Leaving || len(got.Hello.Peers) != len(p.Hello.Peers) {
				t.Fatal("hello body changed")
			}
		case TypeAnnounce:
			if got.Announce.Op != p.Announce.Op || got.Announce.MsgID != p.Announce.MsgID ||
				len(got.Announce.Addrs) != len(p.Announce.Addrs) {
				t.Fatal("announce body changed")
			}
		}
		if !bytes.Equal(got.Marshal(), p.Marshal()) {
			t.Fatal("double marshal differs")
		}
	})
}

// bitsFrom builds an n-bit vector from fuzz bytes, zero-padded.
func bitsFrom(b []byte, n int) gf.BitVec {
	v := gf.NewBitVec(n)
	for i := 0; i < n && i/8 < len(b); i++ {
		if b[i/8]>>(uint(i)%8)&1 == 1 {
			v.Set(i, true)
		}
	}
	return v
}
