package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// Packet must satisfy the simulator's message interface so wire and
// simulator costs share one accounting.
var _ dynnet.Message = Packet{}

func TestCodedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range []struct{ k, d int }{{1, 0}, {1, 1}, {8, 8}, {32, 128}, {64, 7}, {13, 100}} {
		c := rlnc.Encode(dims.k/2, dims.k, gf.RandomBitVec(dims.d, rng.Uint64))
		p := NewCoded(3, 42, c)
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("k=%d d=%d: %v", dims.k, dims.d, err)
		}
		if got.Env != p.Env {
			t.Errorf("k=%d d=%d: envelope %+v != %+v", dims.k, dims.d, got.Env, p.Env)
		}
		if got.Coded.K != c.K || !got.Coded.Vec.Equal(c.Vec) {
			t.Errorf("k=%d d=%d: coded body does not round-trip", dims.k, dims.d)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{0, 1, 8, 63, 64, 65, 500} {
		tok := token.Random(token.NewUID(7, 9), d, rng)
		p := NewToken(1, 5, tok)
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if got.Env != p.Env {
			t.Errorf("d=%d: envelope mismatch", d)
		}
		if !got.Token.Equal(tok) {
			t.Errorf("d=%d: token does not round-trip", d)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	acks := []struct {
		a Ack
		// bodyBytes is what the body encodes to, its length fields
		// excluded.
		bodyBytes int
		// planes is what a.Planes decodes to.
		planes [][]uint64
	}{
		// Watermark, form (no planes) and frontier 0 a byte each.
		{Ack{}, 3, nil},
		{Ack{Watermark: 3}, 3, nil},
		// One generation run (2, 2) and two one-byte ranks.
		{Ack{Watermark: 2, Ranks: []GenRank{{Gen: 2, Rank: 5}, {Gen: 3, Rank: 0}}}, 3 + 4, nil},
		// A vector in place of the frontier: two one-id runs, and offsets 0
		// and 3 from base 1 in one byte.
		{Ack{Watermark: 1, Peers: []PeerMark{{Node: 0, Watermark: 1}, {Node: 9, Watermark: 4}}}, 3 + 4 + 1, nil},
		// Every mark equal: width 0, no offset bytes.
		{Ack{Watermark: 7, Ranks: []GenRank{{Gen: 7, Rank: 8}}, Peers: []PeerMark{{Node: 3, Watermark: 7}}}, 3 + 3 + 2, nil},
		// One run of three ids from 200 (a two-byte start), offsets up to
		// 300: 9 bits each, 27 bits in four bytes.
		{Ack{Peers: []PeerMark{{Node: 200, Watermark: 1}, {Node: 201, Watermark: 300}, {Node: 202, Watermark: 0}}}, 3 + 3 + 4, nil},
		// One plane of one byte: ids 0 and 2 one past frontier 5.
		{Ack{Frontier: 5, Planes: [][]uint64{{0b101}}}, 3 + 1, [][]uint64{{0b101}}},
		// Two planes over 192 ids, id 191 at offset 1 and id 64 at 2:
		// 24 bytes each.
		{Ack{Watermark: 4, Frontier: 3, Planes: [][]uint64{{0, 0, 1 << 63}, {0, 1, 0}}}, 3 + 48, [][]uint64{{0, 0, 1 << 63}, {0, 1, 0}}},
		// Trimmed: the zero top plane and the zero bytes after id 9.
		{Ack{Frontier: 1, Planes: [][]uint64{{1 << 9, 0, 0}, {0, 0, 0}}}, 3 + 2, [][]uint64{{1 << 9}}},
		// Every plane zero: none go out.
		{Ack{Frontier: 1, Planes: [][]uint64{{0, 0}}}, 3, nil},
	}
	for i, tc := range acks {
		a := tc.a
		p := NewAck(i, i*2, a)
		raw := p.Marshal()
		got, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if got.Env != p.Env {
			t.Errorf("ack %d: envelope mismatch", i)
		}
		if got.Ack.Watermark != a.Watermark || !slices.Equal(got.Ack.Ranks, a.Ranks) || !slices.Equal(got.Ack.Peers, a.Peers) ||
			got.Ack.Frontier != a.Frontier || !slices.EqualFunc(got.Ack.Planes, tc.planes, slices.Equal) {
			t.Errorf("ack %d: body %+v does not round-trip to %+v", i, a, got.Ack)
		}
		if want := 8 * tc.bodyBytes; p.Bits() != want {
			t.Errorf("ack %d: Bits %d, want %d", i, p.Bits(), want)
		}
		// Framing on top of Bits: the header and the length fields.
		if want := HeaderBytes + lengthFieldBytes(t, raw) + p.Bits()/8; len(raw) != want || p.WireBytes() != want {
			t.Errorf("ack %d: wire size %d (WireBytes %d), want %d", i, len(raw), p.WireBytes(), want)
		}
	}
}

func TestAckUnmarshalRejects(t *testing.T) {
	// Watermark 1; generation run (1, 1) at rank 2; then one plane of
	// one byte above frontier 1 (id 1 at offset 1), or a vector of width
	// 0: one run (0, 1), base 1.
	planes := NewAck(1, 2, Ack{Watermark: 1, Ranks: []GenRank{{Gen: 1, Rank: 2}}, Frontier: 1, Planes: [][]uint64{{2}}}).Marshal()
	vector := NewAck(1, 2, Ack{Watermark: 1, Ranks: []GenRank{{Gen: 1, Rank: 2}}, Peers: []PeerMark{{Node: 0, Watermark: 1}}}).Marshal()
	if want := []byte{1, 1, 1, 1, 2, 1, 1, 1, 2}; !bytes.Equal(planes[HeaderBytes:], want) {
		t.Fatalf("planes body %x, want %x", planes[HeaderBytes:], want)
	}
	if want := []byte{1, 1, 1, 1, 2, 0x80, 1, 0, 1, 1}; !bytes.Equal(vector[HeaderBytes:], want) {
		t.Fatalf("vector body %x, want %x", vector[HeaderBytes:], want)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty body", planes[:HeaderBytes], ErrTruncated},
		{"generation run count missing", planes[:HeaderBytes+1], ErrTruncated},
		{"rank list truncated", planes[:HeaderBytes+4], ErrTruncated},
		{"form missing", planes[:HeaderBytes+5], ErrTruncated},
		{"frontier missing", planes[:HeaderBytes+6], ErrTruncated},
		{"plane length missing", planes[:HeaderBytes+7], ErrTruncated},
		{"planes truncated", planes[:HeaderBytes+8], ErrTruncated},
		{"trailing byte after the planes", append(append([]byte(nil), planes...), 0), ErrMalformed},
		{"run count missing", vector[:HeaderBytes+6], ErrTruncated},
		{"run truncated", vector[:HeaderBytes+8], ErrTruncated},
		{"base missing", vector[:HeaderBytes+9], ErrTruncated},
		{"trailing byte after the vector", append(append([]byte(nil), vector...), 0), ErrMalformed},
	}
	for _, tc := range cases {
		if _, err := Unmarshal(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	// Canonical form, by the layout: a split generation run; a form over
	// 32 planes or bits, or between the two; more than 32 planes, a zero
	// top plane, planes ending in a byte zero in each and planes past the
	// entry cap; an empty vector, a base below the least mark (every
	// offset nonzero), a width wider than the spread, nonzero padding
	// bits, and a mark past 2³²-1.
	edit := func(body ...byte) []byte { return append(append([]byte(nil), planes[:HeaderBytes]...), body...) }
	for name, data := range map[string][]byte{
		"split generation run":      edit(1, 2, 1, 1, 2, 2, 1, 3, 0, 0),
		"form between the two":      edit(1, 1, 1, 1, 2, 0x40, 1),
		"33 planes":                 edit(1, 1, 1, 1, 2, 33, 1, 1, 1),
		"zero top plane":            edit(1, 1, 1, 1, 2, 2, 1, 1, 1, 0),
		"zero plane length":         edit(1, 1, 1, 1, 2, 1, 1, 0),
		"trailing zero plane byte":  edit(1, 1, 1, 1, 2, 2, 1, 2, 1, 0, 1, 0),
		"planes past the entry cap": edit(1, 1, 1, 1, 2, 1, 1, 0x81, 0x40, 1),
		"empty vector":              edit(1, 1, 1, 1, 2, 0x80, 0),
		"base below the least mark": edit(1, 1, 1, 1, 2, 0x81, 1, 0, 1, 0, 0x01),
		"width wider than spread":   edit(1, 1, 1, 1, 2, 0x81, 1, 0, 1, 1, 0),
		"width over 32":             edit(1, 1, 1, 1, 2, 0xa8, 1, 0, 1, 1, 0, 0, 0, 0, 0),
		"nonzero padding bits":      edit(1, 1, 1, 1, 2, 0x81, 1, 0, 2, 1, 0x81),
		"mark past 2^32-1":          edit(1, 1, 1, 1, 2, 0x81, 1, 0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x02),
	} {
		if _, err := Unmarshal(data); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err %v, want ErrMalformed", name, err)
		}
	}
	// One ack, one form: the encoder refuses a vector beside a frontier
	// or planes.
	for _, a := range []Ack{
		{Frontier: 1, Peers: []PeerMark{{Node: 0, Watermark: 1}}},
		{Planes: [][]uint64{{1}}, Peers: []PeerMark{{Node: 0, Watermark: 1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v marshalled: want a panic", a)
				}
			}()
			NewAck(1, 2, a).Marshal()
		}()
	}
}

func TestHelloRoundTrip(t *testing.T) {
	hellos := []struct {
		h Hello
		// runBytes is what the peer list's (start, count) pairs encode to.
		runBytes int
	}{
		{Hello{}, 0},
		{Hello{Leaving: true}, 0},
		{Hello{Peers: []uint32{0, 3, 9}}, 6},
		{Hello{Leaving: true, Peers: []uint32{7}}, 2},
		// 0..299 is one run with a two-byte count; 1000 stands alone with
		// a two-byte start.
		{Hello{Peers: append(seq(0, 300), 1000)}, 1 + 2 + 2 + 1},
	}
	for i, tc := range hellos {
		h := tc.h
		p := NewHello(i, i*3, h)
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("hello %d: %v", i, err)
		}
		if got.Env != p.Env {
			t.Errorf("hello %d: envelope mismatch", i)
		}
		if got.Hello.Leaving != h.Leaving || !slices.Equal(got.Hello.Peers, h.Peers) {
			t.Errorf("hello %d: body %+v does not round-trip to %+v", i, h, got.Hello)
		}
		if want := 8 + 8*tc.runBytes; p.Bits() != want {
			t.Errorf("hello %d: Bits %d, want %d", i, p.Bits(), want)
		}
		// Framing on top of Bits: the header and the one-byte run count.
		if want := HeaderBytes + 1 + p.Bits()/8; len(p.Marshal()) != want || p.WireBytes() != want {
			t.Errorf("hello %d: wire size %d (WireBytes %d), want %d", i, len(p.Marshal()), p.WireBytes(), want)
		}
	}
}

// seq returns the ids lo, lo+1, …, lo+n-1.
func seq(lo uint32, n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = lo + uint32(i)
	}
	return ids
}

func TestHelloUnmarshalRejects(t *testing.T) {
	good := NewHello(1, 2, Hello{Peers: []uint32{4, 5}}).Marshal()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short body", good[:HeaderBytes+1], ErrTruncated},
		{"run list truncated", good[:len(good)-1], ErrTruncated},
		{"trailing byte", append(append([]byte(nil), good...), 0), ErrMalformed},
	}
	for _, tc := range cases {
		if _, err := Unmarshal(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	// Undefined flag bits are rejected: the canonical encoding uses only
	// 0 (announce) and 1 (leave).
	for _, flags := range []byte{2, 3, 0x80, 0xff} {
		bad := append([]byte(nil), good...)
		bad[HeaderBytes] = flags
		if _, err := Unmarshal(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("flags %#x accepted: %v", flags, err)
		}
	}
}

func TestAnnounceRoundTrip(t *testing.T) {
	anns := []Announce{
		{},
		{Op: AnnouncePing, MsgID: 1, Addrs: []AddrEntry{{Node: 0, Addr: "127.0.0.1:9000"}}},
		{Op: AnnouncePong, MsgID: 7, Addrs: []AddrEntry{
			{Node: 0, Addr: "127.0.0.1:9000"},
			{Node: 3, Addr: "[::1]:9003"},
		}},
		{Op: AnnounceLookup, MsgID: 1 << 60, Addrs: []AddrEntry{{Node: 9}}},
		{Op: AnnounceLookupOK, MsgID: 42, Addrs: []AddrEntry{{Node: 9, Addr: "10.0.0.9:12345"}}},
	}
	for i, a := range anns {
		p := NewAnnounce(i, i*2, a)
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("announce %d: %v", i, err)
		}
		if got.Env != p.Env {
			t.Errorf("announce %d: envelope mismatch", i)
		}
		if got.Announce.Op != a.Op || got.Announce.MsgID != a.MsgID ||
			len(got.Announce.Addrs) != len(a.Addrs) {
			t.Errorf("announce %d: body %+v does not round-trip to %+v", i, a, got.Announce)
		}
		for j := range a.Addrs {
			if got.Announce.Addrs[j] != a.Addrs[j] {
				t.Errorf("announce %d entry %d: %+v != %+v", i, j, got.Announce.Addrs[j], a.Addrs[j])
			}
		}
		wantBits := 8 + 64
		wantWire := HeaderBytes + 13
		for _, e := range a.Addrs {
			wantBits += 48 + 8*len(e.Addr)
			wantWire += 6 + len(e.Addr)
		}
		if p.Bits() != wantBits {
			t.Errorf("announce %d: Bits %d, want %d", i, p.Bits(), wantBits)
		}
		if len(p.Marshal()) != wantWire || p.WireBytes() != wantWire {
			t.Errorf("announce %d: wire size %d (WireBytes %d), want %d", i, len(p.Marshal()), p.WireBytes(), wantWire)
		}
	}
}

func TestAnnounceUnmarshalRejects(t *testing.T) {
	good := NewAnnounce(1, 2, Announce{Op: AnnouncePong, MsgID: 5, Addrs: []AddrEntry{
		{Node: 4, Addr: "127.0.0.1:9004"},
		{Node: 5, Addr: "127.0.0.1:9005"},
	}}).Marshal()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short body", good[:HeaderBytes+12], ErrTruncated},
		{"entry header truncated", good[:HeaderBytes+13+3], ErrTruncated},
		{"addr bytes truncated", good[:len(good)-1], ErrTruncated},
		{"trailing byte", append(append([]byte(nil), good...), 0), ErrMalformed},
	}
	for _, tc := range cases {
		if _, err := Unmarshal(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	// Undefined op values are rejected: canonical encodings use only
	// ping/pong/lookup/lookup-ok.
	for _, op := range []byte{4, 9, 0xff} {
		bad := append([]byte(nil), good...)
		bad[HeaderBytes] = op
		if _, err := Unmarshal(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("op %#x accepted: %v", op, err)
		}
	}
	// Oversized entry count must be rejected before any allocation.
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[HeaderBytes+9:], MaxAckEntries+1)
	if _, err := Unmarshal(huge); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized entry count accepted: %v", err)
	}
	// An address length beyond MaxAddrBytes is malformed even when the
	// remaining body could satisfy it.
	long := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(long[HeaderBytes+13+4:], MaxAddrBytes+1)
	if _, err := Unmarshal(long); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized addr length accepted: %v", err)
	}
}

// TestAnnounceMarshalPanics pins the encoder-side contract: building
// wire bytes for an undefined op or an address the uint16 length field
// cannot carry is a programming error, not a silent truncation.
func TestAnnounceMarshalPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("bad op", func() {
		NewAnnounce(0, 0, Announce{Op: 4}).Marshal()
	})
	mustPanic("oversized addr", func() {
		NewAnnounce(0, 0, Announce{Addrs: []AddrEntry{{Node: 0, Addr: string(make([]byte, MaxAddrBytes+1))}}}).Marshal()
	})
}

// TestEnvelopeRangePanics pins the no-wrap policy: a sender or epoch
// the 32-bit wire fields cannot carry must panic in the constructor
// instead of silently truncating, so generation g and g+2^32 can never
// alias in ack/rank bookkeeping (the long-stream corruption this
// regression test exists for).
func TestEnvelopeRangePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic for out-of-range envelope value", name)
			}
		}()
		f()
	}
	tok := token.Token{Payload: gf.NewBitVec(0)}
	mustPanic("epoch negative", func() { NewAck(0, -1, Ack{}) })
	mustPanic("sender negative", func() { NewCoded(-1, 0, rlnc.Coded{K: 0, Vec: gf.NewBitVec(0)}) })
	if strconv.IntSize < 64 {
		t.Skip("values beyond the 32-bit wire range are unrepresentable in int on this platform")
	}
	// Computed at runtime so the test still compiles where int is 32
	// bits (the constant 2^32 would overflow at compile time).
	var over64 int64 = 1 << 32
	over := int(over64)
	mustPanic("epoch 2^32", func() { NewToken(0, over, tok) })
	mustPanic("sender 2^32", func() { NewHello(over, 0, Hello{}) })

	// The extremes of the representable range still alias-proof: they
	// marshal and round-trip unchanged.
	p := NewToken(over-1, over-1, tok)
	got, err := Unmarshal(p.Marshal())
	if err != nil || got.Env.Sender != MaxSender || got.Env.Epoch != MaxEpoch {
		t.Errorf("max envelope values did not round-trip: %+v, %v", got.Env, err)
	}
}

// TestGoldenWireBytes pins the exact byte layout of every packet type —
// version/type/sender/epoch envelope offsets and each body — so a codec
// change that would break cross-version compatibility fails this test
// loudly instead of silently re-defining the wire format.
func TestGoldenWireBytes(t *testing.T) {
	codedVec := gf.NewBitVec(12)
	codedVec.Set(0, true)
	codedVec.Set(5, true)
	codedVec.Set(11, true)
	tokenPayload := gf.NewBitVec(9)
	tokenPayload.Set(0, true)
	tokenPayload.Set(8, true)

	cases := []struct {
		name string
		pkt  Packet
		want []byte
	}{
		{
			"coded",
			NewCoded(0x04030201, 0x44332211, rlnc.Coded{K: 3, Vec: codedVec}),
			[]byte{
				Version,                // version
				0x01,                   // type = coded
				0x01, 0x02, 0x03, 0x04, // sender, little-endian
				0x11, 0x22, 0x33, 0x44, // epoch, little-endian
				0x03, 0x00, 0x00, 0x00, // k = 3
				0x0c, 0x00, 0x00, 0x00, // vecBits = 12
				0x21, 0x08, // bits 0, 5, 11 (LSB-first)
			},
		},
		{
			"token",
			NewToken(5, 6, token.Token{UID: token.NewUID(2, 3), Payload: tokenPayload}),
			[]byte{
				Version,                // version
				0x02,                   // type = token
				0x05, 0x00, 0x00, 0x00, // sender
				0x06, 0x00, 0x00, 0x00, // epoch
				0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // uid = owner 2 << 32 | seq 3
				0x09, 0x00, 0x00, 0x00, // payloadBits = 9
				0x01, 0x01, // bits 0 and 8
			},
		},
		{
			"hello",
			NewHello(9, 10, Hello{Leaving: true, Peers: []uint32{2, 3, 0x01020304}}),
			[]byte{
				Version,                // version
				0x04,                   // type = hello
				0x09, 0x00, 0x00, 0x00, // sender
				0x0a, 0x00, 0x00, 0x00, // epoch
				0x01,       // flags: leaving
				0x02,       // 2 runs
				0x02, 0x02, // ids 2, 3
				0x84, 0x86, 0x88, 0x08, 0x01, // id 0x01020304 as a uvarint, alone
			},
		},
		{
			"announce",
			NewAnnounce(11, 12, Announce{
				Op:    AnnouncePong,
				MsgID: 0x0102030405060708,
				Addrs: []AddrEntry{{Node: 2, Addr: "a:1"}},
			}),
			[]byte{
				Version,                // version
				0x05,                   // type = announce
				0x0b, 0x00, 0x00, 0x00, // sender
				0x0c, 0x00, 0x00, 0x00, // epoch
				0x01,                                           // op = pong
				0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // msgID, little-endian
				0x01, 0x00, 0x00, 0x00, // 1 address entry
				0x02, 0x00, 0x00, 0x00, // node 2
				0x03, 0x00, // addr length 3
				0x61, 0x3a, 0x31, // "a:1"
			},
		},
		{
			"ack",
			NewAck(7, 8, Ack{
				Watermark: 2,
				Ranks:     []GenRank{{Gen: 2, Rank: 1}, {Gen: 3, Rank: 200}},
				Frontier:  2,
				Planes:    [][]uint64{{0b0110}, {0b0100}},
			}),
			[]byte{
				Version,                // version
				0x03,                   // type = ack
				0x07, 0x00, 0x00, 0x00, // sender
				0x08, 0x00, 0x00, 0x00, // epoch
				0x02,                         // watermark = 2
				0x01,                         // 1 generation run
				0x02, 0x02, 0x01, 0xc8, 0x01, // gens 2, 3: ranks 1, 200 (a two-byte uvarint)
				0x02,       // form: 2 planes
				0x02,       // frontier = 2
				0x01,       // of 1 byte each
				0x06, 0x04, // ids 0, 1, 2 at offsets 0, 1, 3: bit 0 of each, then bit 1
			},
		},
		{
			"ack vector",
			NewAck(7, 8, Ack{
				Watermark: 2,
				Peers:     []PeerMark{{Node: 0, Watermark: 2}, {Node: 1, Watermark: 3}, {Node: 300, Watermark: 9}},
			}),
			[]byte{
				Version,                // version
				0x03,                   // type = ack
				0x07, 0x00, 0x00, 0x00, // sender
				0x08, 0x00, 0x00, 0x00, // epoch
				0x02,       // watermark = 2
				0x00,       // no generation runs
				0x83,       // form: a vector of width 3, the spread 9-2 = 7 taking 3 bits
				0x02,       // 2 peer runs
				0x00, 0x02, // nodes 0, 1
				0xac, 0x02, 0x01, // node 300 alone (a two-byte uvarint start)
				0x02,       // base = 2, the least mark
				0xc8, 0x01, // offsets 0, 1, 7 at 3 bits, LSB-first: 000 100 111, then 7 zero spare bits
			},
		},
	}
	for _, tc := range cases {
		got := tc.pkt.Marshal()
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: marshal\n got %x\nwant %x", tc.name, got, tc.want)
		}
		// The envelope offsets are shared by every type: version byte,
		// type byte, then the two little-endian uint32s.
		if got[0] != Version || Type(got[1]) != tc.pkt.Env.Type {
			t.Errorf("%s: envelope version/type bytes %x %x", tc.name, got[0], got[1])
		}
		if s := binary.LittleEndian.Uint32(got[2:6]); s != tc.pkt.Env.Sender {
			t.Errorf("%s: sender at offset 2 = %d, want %d", tc.name, s, tc.pkt.Env.Sender)
		}
		if e := binary.LittleEndian.Uint32(got[6:10]); e != tc.pkt.Env.Epoch {
			t.Errorf("%s: epoch at offset 6 = %d, want %d", tc.name, e, tc.pkt.Env.Epoch)
		}
		back, err := Unmarshal(tc.want)
		if err != nil {
			t.Errorf("%s: golden bytes rejected: %v", tc.name, err)
		} else if !bytes.Equal(back.Marshal(), tc.want) {
			t.Errorf("%s: golden bytes not canonical", tc.name)
		}
	}
}

// TestBitsAgreesWithSimAccounting pins the comparability contract: a
// decoded wire packet reports exactly the Bits() the in-memory message
// would be charged by the dynnet engine, and the physical size is that
// payload plus the documented framing.
func TestBitsAgreesWithSimAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := rlnc.Encode(2, 16, gf.RandomBitVec(100, rng.Uint64))
	pc := NewCoded(0, 0, c)
	if pc.Bits() != c.Bits() {
		t.Errorf("coded Bits %d != rlnc accounting %d", pc.Bits(), c.Bits())
	}
	if want := 16 + 100; pc.Bits() != want {
		t.Errorf("coded Bits %d, want k+payload = %d", pc.Bits(), want)
	}
	if got, want := len(pc.Marshal()), HeaderBytes+8+(c.Bits()+7)/8; got != want || pc.WireBytes() != want {
		t.Errorf("coded wire size %d (WireBytes %d), want %d", got, pc.WireBytes(), want)
	}

	tok := token.Random(token.NewUID(1, 2), 100, rng)
	pt := NewToken(0, 0, tok)
	if pt.Bits() != tok.Bits() {
		t.Errorf("token Bits %d != token accounting %d", pt.Bits(), tok.Bits())
	}
	if want := token.UIDBits + 100; pt.Bits() != want {
		t.Errorf("token Bits %d, want UID+payload = %d", pt.Bits(), want)
	}
	if got, want := len(pt.Marshal()), HeaderBytes+12+(100+7)/8; got != want || pt.WireBytes() != want {
		t.Errorf("token wire size %d (WireBytes %d), want %d", got, pt.WireBytes(), want)
	}
}

func TestUnmarshalRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	good := NewCoded(1, 1, rlnc.Encode(0, 4, gf.RandomBitVec(5, rng.Uint64))).Marshal()

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", good[:5], ErrTruncated},
		{"bad version", mutate(func(b []byte) []byte { b[0] = 9; return b }), ErrVersion},
		{"version 1, the fixed-width list layout", mutate(func(b []byte) []byte { b[0] = 1; return b }), ErrVersion},
		{"bad type", mutate(func(b []byte) []byte { b[1] = 77; return b }), ErrType},
		{"short coded body", good[:HeaderBytes+3], ErrTruncated},
		{"trailing byte", append(append([]byte(nil), good...), 0), ErrMalformed},
		{"truncated vector", good[:len(good)-1], ErrMalformed},
		{"spare bits set", mutate(func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }), ErrMalformed},
		{"k over veclen", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[HeaderBytes:], 100)
			return b
		}), ErrMalformed},
	}
	for _, tc := range cases {
		if _, err := Unmarshal(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}

	// Oversized declared length must be rejected before allocation.
	huge := mutate(func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[HeaderBytes+4:], MaxVecBits+1)
		return b
	})
	if _, err := Unmarshal(huge); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized vector accepted: %v", err)
	}

	// Short token body.
	tokHdr := NewToken(0, 0, token.Token{Payload: gf.NewBitVec(0)}).Marshal()[:HeaderBytes+4]
	if _, err := Unmarshal(tokHdr); !errors.Is(err, ErrTruncated) {
		t.Errorf("short token body: %v", err)
	}
}

// TestAcceptedBytesAreCanonical asserts the byte-level half of the
// round-trip contract on hand-built inputs.
func TestAcceptedBytesAreCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		var p Packet
		if i%2 == 0 {
			p = NewCoded(i, i*3, rlnc.Coded{K: i % 9, Vec: gf.RandomBitVec(i%9+i%31, rng.Uint64)})
		} else {
			p = NewToken(i, i*3, token.Random(token.NewUID(i, 0), i%67, rng))
		}
		b := p.Marshal()
		q, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(q.Marshal(), b) {
			t.Fatalf("packet %d: re-marshal differs", i)
		}
	}
}

func TestMarshalUnknownTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown envelope type")
		}
	}()
	Packet{Env: Envelope{Version: Version, Type: 9}}.Marshal()
}

// samplePackets returns one packet of each wire type with non-trivial
// bodies, for exercising the append/into codec paths.
func samplePackets(t *testing.T) []Packet {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	return []Packet{
		NewCoded(3, 9, rlnc.Encode(5, 32, gf.RandomBitVec(161, rng.Uint64))),
		NewToken(7, 1, token.Token{UID: token.NewUID(2, 11), Payload: gf.RandomBitVec(77, rng.Uint64)}),
		NewAck(2, 4, Ack{
			Watermark: 6,
			Ranks:     []GenRank{{Gen: 6, Rank: 12}, {Gen: 7, Rank: 3}},
			Frontier:  5,
			Planes:    [][]uint64{{1 << 3, 1 << 40}, {1, 0}},
		}),
		NewAck(2, 4, Ack{
			Watermark: 6,
			Ranks:     []GenRank{{Gen: 6, Rank: 12}, {Gen: 7, Rank: 3}},
			Peers:     []PeerMark{{Node: 0, Watermark: 6}, {Node: 3, Watermark: 5}},
		}),
		NewHello(5, 0, Hello{Leaving: true, Peers: []uint32{1, 4, 6}}),
		NewAnnounce(6, 2, Announce{Op: AnnounceLookupOK, MsgID: 99, Addrs: []AddrEntry{
			{Node: 1, Addr: "127.0.0.1:9001"},
			{Node: 4, Addr: "[::1]:9004"},
		}}),
	}
}

// TestAppendToMatchesMarshal pins AppendTo as a byte-exact drop-in for
// Marshal, including appending after existing content.
func TestAppendToMatchesMarshal(t *testing.T) {
	for _, p := range samplePackets(t) {
		want := p.Marshal()
		if got := p.AppendTo(nil); !bytes.Equal(got, want) {
			t.Errorf("type %d: AppendTo(nil) != Marshal", p.Env.Type)
		}
		prefix := []byte{0xde, 0xad}
		got := p.AppendTo(prefix)
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Errorf("type %d: AppendTo with prefix corrupted output", p.Env.Type)
		}
		if len(want) != p.WireBytes() {
			t.Errorf("type %d: WireBytes %d != marshaled length %d", p.Env.Type, p.WireBytes(), len(want))
		}
	}
}

// TestAppendToReservesOnce pins the per-type reservation: marshalling
// out of an empty buffer — a node's first packets, or a hello far larger
// than anything its ring holds — costs one allocation, not a doubling
// chain, for every packet of the sample set and for the lists the
// runtimes send: an ack of one-byte marks over the whole id space, dense
// or with a few holes, an ack of eight planes over it, and a hello of a
// dense view. A hello's
// reservation does not grow with its list, because its encoding is
// O(runs).
func TestAppendToReservesOnce(t *testing.T) {
	pkts := samplePackets(t)
	for _, n := range []int{192, 2048} {
		var marks []PeerMark
		for id := 0; id < n; id++ {
			if id != 7 && id != 100 { // three runs, at most 7 bytes of headers
				marks = append(marks, PeerMark{Node: uint32(id), Watermark: uint32(1 + id%127)})
			}
		}
		planes := make([][]uint64, 8)
		for l := range planes {
			planes[l] = make([]uint64, n/64)
			planes[l][n/64-1] = 1 << 63
		}
		pkts = append(pkts, NewAck(5, 3, Ack{Watermark: 3, Ranks: []GenRank{{Gen: 3, Rank: 9}}, Peers: marks}),
			NewAck(5, 3, Ack{Watermark: 3, Ranks: []GenRank{{Gen: 3, Rank: 9}}, Planes: planes}),
			NewHello(5, 0, Hello{Peers: seq(0, n)}))
	}
	small := make([]byte, 0, HeaderBytes-1)
	for _, p := range pkts {
		for name, buf := range map[string][]byte{"nil": nil, "too small": small} {
			// What one reservation costs in this build (1; 2 under -race).
			size := p.WireBytes()
			want := testing.AllocsPerRun(20, func() { sink = slices.Grow(buf, size) })
			if n := testing.AllocsPerRun(20, func() { sink = p.AppendTo(buf) }); n != want {
				t.Errorf("type %d of %d bytes into a %s buffer: %.0f allocations, want %.0f", p.Env.Type, size, name, n, want)
			}
		}
	}
	dense := NewHello(5, 0, Hello{Peers: seq(0, MaxAckEntries)})
	if got, want := cap(dense.AppendTo(nil)), cap(NewHello(5, 0, Hello{}).AppendTo(nil)); got != want {
		t.Errorf("a %d-id hello reserved %d bytes, an empty one %d", MaxAckEntries, got, want)
	}
}

var sink []byte

// TestUnmarshalIntoReuse decodes alternating packet types into one
// scratch Packet and requires every decode to match the allocating
// Unmarshal exactly, proving stale cross-type storage never leaks.
func TestUnmarshalIntoReuse(t *testing.T) {
	pkts := samplePackets(t)
	var scratch Packet
	for round := 0; round < 3; round++ {
		for _, p := range pkts {
			raw := p.Marshal()
			if err := UnmarshalInto(&scratch, raw); err != nil {
				t.Fatalf("type %d: UnmarshalInto: %v", p.Env.Type, err)
			}
			want, err := Unmarshal(raw)
			if err != nil {
				t.Fatalf("type %d: Unmarshal: %v", p.Env.Type, err)
			}
			if scratch.Env != want.Env {
				t.Fatalf("type %d: envelope diverged", p.Env.Type)
			}
			if !bytes.Equal(scratch.Marshal(), raw) {
				t.Fatalf("type %d: scratch re-marshal diverged after reuse", p.Env.Type)
			}
		}
	}
}

// TestWireRoundTripSteadyStateZeroAlloc pins the tentpole claim for the
// codec layer: a marshal→unmarshal round trip through one reused buffer
// and one reused scratch Packet allocates nothing — alone, and as the
// middle of the whole emission hop the runtimes run per packet (what
// BenchmarkEmitInsertSteadyState times): recombine a full-rank span
// into a scratch packet, marshal, decode, insert into a receiving span
// that is Reset, keeping its slab, whenever it reaches full rank.
func TestWireRoundTripSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const k, d = 32, 160
	var scratch Packet
	roundTrip := func(p *Packet, buf []byte) []byte {
		buf = p.AppendTo(buf[:0])
		if err := UnmarshalInto(&scratch, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}

	t.Run("codec", func(t *testing.T) {
		p := NewCoded(3, 9, rlnc.Encode(5, k, gf.RandomBitVec(d, rng.Uint64)))
		buf := roundTrip(&p, nil)
		if allocs := testing.AllocsPerRun(100, func() { buf = roundTrip(&p, buf) }); allocs != 0 {
			t.Fatalf("steady-state wire round trip allocated %.1f times per op, want 0", allocs)
		}
	})

	t.Run("emission hop", func(t *testing.T) {
		src, sink := rlnc.NewSpan(k, d), rlnc.NewSpan(k, d)
		for i := 0; i < k; i++ {
			src.Add(rlnc.Encode(i, k, gf.RandomBitVec(d, rng.Uint64)))
		}
		tx := Packet{Env: Envelope{Version: Version, Type: TypeCoded, Sender: 1}}
		var buf []byte
		resets := 0
		hop := func() {
			if !src.RandomCombinationInto(&tx.Coded, rng) {
				t.Fatal("empty source span")
			}
			buf = roundTrip(&tx, buf)
			sink.Add(scratch.Coded)
			if sink.Rank() == k {
				sink.Reset()
				resets++
			}
		}
		for resets == 0 { // warm the scratches, grow the sink's slab to full rank once
			hop()
		}
		if allocs := testing.AllocsPerRun(4*k, hop); allocs != 0 {
			t.Fatalf("steady-state emission hop allocated %.2f times per packet, want 0", allocs)
		}
		if resets < 3 {
			t.Fatalf("%d sink refills measured, want the Reset path covered", resets)
		}
	})
}
