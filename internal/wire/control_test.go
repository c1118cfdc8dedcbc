package wire

// The run-length coded id lists of the two control bodies: a hello's
// peer list, an ack's rank summary and its bit-packed watermark vector,
// and an ack's planes.
// The contract is the codec's, restated for lists: any list round-trips
// entry for entry, accepted bytes are canonical, Bits is the encoded
// body less its length fields, and a claim costs the decoder nothing
// until it is within MaxAckEntries.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// checkControlRoundTrip is the property both the table test and the
// fuzz target assert for one hello list, one ack vector and the same
// marks as an ack's planes.
func checkControlRoundTrip(t *testing.T, ids []uint32, marks []PeerMark) {
	t.Helper()
	for _, p := range []Packet{
		NewHello(1, 0, Hello{Peers: ids}),
		NewAck(1, 2, Ack{Watermark: 5, Ranks: []GenRank{{Gen: 5, Rank: 1}}, Peers: marks}),
		NewAck(1, 2, Ack{Watermark: 5, Frontier: 5, Planes: planesOf(marks)}),
	} {
		raw := p.Marshal()
		got, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("type %d: own encoding %x rejected: %v", p.Env.Type, raw, err)
		}
		// decode∘encode is the identity, entry for entry and in order.
		if !slices.Equal(got.Hello.Peers, p.Hello.Peers) || !slices.Equal(got.Ack.Peers, p.Ack.Peers) ||
			!slices.Equal(got.Ack.Ranks, p.Ack.Ranks) || got.Ack.Watermark != p.Ack.Watermark ||
			got.Ack.Frontier != p.Ack.Frontier || !slices.Equal(offsets(got.Ack.Planes), offsets(p.Ack.Planes)) {
			t.Fatalf("type %d: list changed in flight:\nsent %v %v\n got %v %v", p.Env.Type,
				p.Hello.Peers, p.Ack.Peers, got.Hello.Peers, got.Ack.Peers)
		}
		// encode∘decode is the identity on accepted bytes.
		if again := got.Marshal(); !bytes.Equal(again, raw) {
			t.Fatalf("type %d: re-marshal %x != %x", p.Env.Type, again, raw)
		}
		// Bits is the body less its length fields; WireBytes is the lot.
		if want := 8 * (len(raw) - HeaderBytes - lengthFieldBytes(t, raw)); p.Bits() != want || got.Bits() != want {
			t.Fatalf("type %d: Bits %d (decoded %d), want %d for %x", p.Env.Type, p.Bits(), got.Bits(), want, raw)
		}
		if p.WireBytes() != len(raw) {
			t.Fatalf("type %d: WireBytes %d, marshalled %d", p.Env.Type, p.WireBytes(), len(raw))
		}
		checkEncode(t, &p, raw)
	}
}

// checkEncode holds the one-pass encoder to Marshal and Bits: after any
// prefix, Encode writes Marshal's bytes and counts Bits() of them.
func checkEncode(t *testing.T, p *Packet, raw []byte) {
	t.Helper()
	prefix := []byte{0xde, 0xad}
	out, bits := p.Encode(prefix[:2:2])
	if !bytes.Equal(out[:2], prefix) || !bytes.Equal(out[2:], raw) {
		t.Fatalf("type %d: Encode wrote %x, Marshal %x", p.Env.Type, out[2:], raw)
	}
	if bits != p.Bits() {
		t.Fatalf("type %d: Encode counted %d bits, Bits is %d, for %x", p.Env.Type, bits, p.Bits(), raw)
	}
}

// planeIDs is the id space planesOf spells marks over.
const planeIDs = 4096

// planesOf spells marks as an ack's planes: a mark's watermark is the
// offset of id Node mod planeIDs, ORed into what other marks put there.
func planesOf(marks []PeerMark) [][]uint64 {
	var planes [][]uint64
	for _, pm := range marks {
		for len(planes) < bits.Len32(pm.Watermark) {
			planes = append(planes, make([]uint64, planeIDs/64))
		}
		id := pm.Node % planeIDs
		for l, pl := range planes {
			pl[id/64] |= uint64(pm.Watermark>>l&1) << (id % 64)
		}
	}
	return planes
}

// offsets reads planes back into one offset an id.
func offsets(planes [][]uint64) []uint32 {
	out := make([]uint32, planeIDs)
	for l, pl := range planes {
		for w, x := range pl {
			for ; x != 0; x &= x - 1 {
				out[64*w+bits.TrailingZeros64(x)] |= 1 << l
			}
		}
	}
	return out
}

// lengthFieldBytes finds, by the layout in the package comment and with
// encoding/binary's own uvarint, how many bytes of a marshalled hello or
// ack are list lengths: the run count, and an ack's generation run count
// and plane length.
func lengthFieldBytes(t *testing.T, raw []byte) int {
	t.Helper()
	if Type(raw[1]) == TypeHello { // the run count follows the flags
		return uvarintAt(t, raw, HeaderBytes+1)
	}
	off := HeaderBytes + uvarintAt(t, raw, HeaderBytes) // past the watermark
	genRuns, fields := binary.Uvarint(raw[off:])
	off += fields
	for r := uint64(0); r < genRuns; r++ {
		off += uvarintAt(t, raw, off) // gen
		count, n := binary.Uvarint(raw[off:])
		off += n
		for i := uint64(0); i < count; i++ {
			off += uvarintAt(t, raw, off) // rank
		}
	}
	if form := raw[off]; form&vectorForm != 0 {
		return fields + uvarintAt(t, raw, off+1) // the run count
	} else if off += 1 + uvarintAt(t, raw, off+1); form > 0 { // past the frontier
		fields += uvarintAt(t, raw, off) // the plane length
	}
	return fields
}

// uvarintAt is the length of the uvarint at raw[off:].
func uvarintAt(t *testing.T, raw []byte, off int) int {
	t.Helper()
	_, n := binary.Uvarint(raw[off:])
	if n <= 0 {
		t.Fatalf("no uvarint at offset %d of %x", off, raw)
	}
	return n
}

// randomIDs draws a list the way real views and hostile ones look:
// ascending stretches, holes, repeats, descents, and the two ends of
// the id space next to each other.
func randomIDs(rng *rand.Rand) []uint32 {
	var ids []uint32
	next := uint32(rng.Intn(4))
	for n := rng.Intn(40); len(ids) < n; {
		switch rng.Intn(8) {
		case 0: // hole
			next += uint32(1 + rng.Intn(300))
		case 1: // repeat
			next--
		case 2: // anywhere, descents included
			next = rng.Uint32()
		case 3: // the wrap: id 2³²-1, then id 0
			ids = append(ids, math.MaxUint32)
			next = 0
		}
		for run := 1 + rng.Intn(6); run > 0; run-- {
			ids = append(ids, next)
			next++
		}
	}
	return ids
}

// apart lists n ids no two of which are neighbours: n runs of one.
func apart(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = 2 * uint32(i)
	}
	return ids
}

// randomMarks draws a watermark vector the way a stream's look — a
// base anywhere and marks within a few bits of it — or, one time in
// four, marks of every width up to 32 bits.
func randomMarks(rng *rand.Rand, ids []uint32) []PeerMark {
	marks := make([]PeerMark, len(ids))
	base, mask := rng.Uint32()>>uint(rng.Intn(33)), uint32(1)<<uint(rng.Intn(5))-1
	wide := rng.Intn(4) == 0
	for i, id := range ids {
		w := min(base, math.MaxUint32-mask) + rng.Uint32()&mask
		if wide {
			w = rng.Uint32() >> uint(rng.Intn(33))
		}
		marks[i] = PeerMark{Node: id, Watermark: w}
	}
	return marks
}

func TestControlRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		ids := randomIDs(rng)
		checkControlRoundTrip(t, ids, randomMarks(rng, ids))
	}
	// The corners by name.
	for _, ids := range [][]uint32{
		nil,
		{0},
		{math.MaxUint32},
		{math.MaxUint32, 0}, // no run wraps
		{math.MaxUint32 - 1, math.MaxUint32, 0, 1}, // a run may end at the last id
		{5, 5, 5},             // duplicates
		{9, 8, 7},             // descending
		{1, 2, 3, 1, 2, 3},    // the same run twice
		seq(0, MaxAckEntries), // the cap itself, as one run
		apart(0x80),           // a run count of two bytes
		apart(1 << 14),        // a run count of three bytes
	} {
		marks := make([]PeerMark, len(ids))
		for i, id := range ids {
			marks[i] = PeerMark{Node: id, Watermark: 1 << 28 << (i % 4)}
		}
		checkControlRoundTrip(t, ids, marks)
	}
}

// FuzzControlRoundTrip feeds checkControlRoundTrip arbitrary lists: each
// 8 bytes of input are one (id, watermark) pair, taken literally, so the
// fuzzer reaches unsorted, duplicated and wrapping lists and every
// varint width by mutating bytes.
func FuzzControlRoundTrip(f *testing.F) {
	le := binary.LittleEndian
	pairs := func(kv ...uint32) []byte {
		var b []byte
		for _, v := range kv {
			b = le.AppendUint32(b, v)
		}
		return b
	}
	f.Add([]byte{}) // an empty vector and no planes
	f.Add(pairs(0, 1, 1, 1, 2, 1, 3, 2))
	f.Add(pairs(3, 9, 4, 9, 5, 9))                       // width 0: every mark equal
	f.Add(pairs(0, 0, 1, math.MaxUint32, 2, 1))          // width 32, 32 planes
	f.Add(pairs(4095, 1, 64, 2, 4096, 3))                // the last id's plane bytes, and ids that wrap onto it
	f.Add(pairs(0, 5, 1, 6, 5, 5, 9, 7, 10, 8, 300, 6))  // id holes
	f.Add(pairs(2, math.MaxUint32, 3, math.MaxUint32-1)) // marks at the top of the range
	f.Add(pairs(7, 0, 9, 200, 8, 1<<28))
	f.Add(pairs(math.MaxUint32, 3, 0, math.MaxUint32))
	f.Add(pairs(4, 4, 4, 4, 5, 5, 3, 3))
	// Past 127 runs the run count takes two bytes and the encoder shifts
	// the runs it wrote to fit it; once with one-byte marks, once with
	// marks of every width from 0x80 on.
	for _, wide := range []bool{false, true} {
		var kv []uint32
		for i, id := range apart(0x90) {
			w := uint32(i % 0x80)
			if wide {
				w = 0x80 << (i % 25)
			}
			kv = append(kv, id, w)
		}
		f.Add(pairs(kv...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ids []uint32
		var marks []PeerMark
		for ; len(data) >= 8 && len(ids) < 4096; data = data[8:] {
			ids = append(ids, le.Uint32(data))
			marks = append(marks, PeerMark{Node: le.Uint32(data), Watermark: le.Uint32(data[4:])})
		}
		checkControlRoundTrip(t, ids, marks)
	})
}

// TestControlRejectsNonCanonical hand-builds the byte strings the
// encoder never writes; each must be refused, or two byte strings would
// decode to one packet and Marshal(Unmarshal(b)) == b would not hold.
func TestControlRejectsNonCanonical(t *testing.T) {
	hello := func(body ...byte) []byte {
		return append(NewHello(1, 0, Hello{}).Marshal()[:HeaderBytes], body...)
	}
	// An ack with watermark 1: its generation runs, then its form byte
	// and its planes or its vector.
	ack := func(body ...byte) []byte {
		return append(NewAck(1, 2, Ack{Watermark: 1}).Marshal()[:HeaderBytes+1], body...)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"hello: accepted baseline", hello(0, 2, 4, 2, 9, 1), nil},
		{"hello: split run", hello(0, 2, 4, 2, 6, 1), ErrMalformed},
		{"hello: zero count", hello(0, 1, 4, 0), ErrMalformed},
		{"hello: padded start", hello(0, 1, 0x84, 0x00, 1), ErrMalformed},
		{"hello: padded count", hello(0, 1, 4, 0x81, 0x00), ErrMalformed},
		{"hello: padded run count", hello(0, 0x81, 0x00, 4, 1), ErrMalformed},
		{"hello: 33-bit start", hello(0, 1, 0xff, 0xff, 0xff, 0xff, 0x1f, 1), ErrMalformed},
		{"hello: six-byte start", hello(0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1), ErrMalformed},
		{"hello: run past 2^32", hello(0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 2), ErrMalformed},
		{"hello: run ending at 2^32", hello(0, 1, 0xfe, 0xff, 0xff, 0xff, 0x0f, 2), nil},
		{"hello: fewer runs than claimed", hello(0, 3, 4, 2, 9, 1), ErrTruncated},
		{"hello: more runs than claimed", hello(0, 1, 4, 2, 9, 1), ErrMalformed},
		{"hello: start cut short", hello(0, 1, 0x84), ErrTruncated},
		// Generations 4, 5 at ranks 3, 7; a vector of width 1: ids 4, 5
		// and 9, base 5, at offsets 0, 1, 0: 0b010.
		{"ack: accepted baseline", ack(1, 4, 2, 3, 7, 0x81, 2, 4, 2, 9, 1, 5, 0x02), nil},
		{"ack: no planes", ack(0, 0, 0), nil},
		{"ack: split generation run", ack(2, 4, 1, 3, 5, 1, 7, 0, 0), ErrMalformed},
		{"ack: padded rank", ack(1, 4, 1, 0x83, 0x00, 0, 0), ErrMalformed},
		{"ack: padded watermark", append(NewAck(1, 2, Ack{}).Marshal()[:HeaderBytes], 0x81, 0x00, 0, 0, 0), ErrMalformed},
		{"ack: form cut off", ack(0), ErrTruncated},
		{"ack: form past 32 planes", ack(0, 33, 3, 1, 0x01), ErrMalformed},
		{"ack: form between the two", ack(0, 0x40, 0), ErrMalformed},
		{"ack: frontier cut off", ack(0, 0), ErrTruncated},
		{"ack: padded frontier", ack(0, 0, 0x83, 0x00), ErrMalformed},
		{"ack: trailing byte after no planes", ack(0, 0, 3, 0), ErrMalformed},
		// Two planes of two bytes above frontier 3: ids 0 and 9 at offset
		// 1, id 8 at 2.
		{"ack: planes", ack(0, 2, 3, 2, 0x01, 0x02, 0x00, 0x01), nil},
		{"ack: zero top plane", ack(0, 2, 3, 1, 0x01, 0x00), ErrMalformed},
		{"ack: zero plane length", ack(0, 1, 3, 0), ErrMalformed},
		{"ack: trailing zero plane byte", ack(0, 1, 3, 2, 0x01, 0x00), ErrMalformed},
		{"ack: padded plane length", ack(0, 1, 3, 0x81, 0x00, 0x01), ErrMalformed},
		{"ack: plane length cut off", ack(0, 1, 3), ErrTruncated},
		{"ack: planes cut short", ack(0, 2, 3, 2, 0x01, 0x02, 0x00), ErrTruncated},
		{"ack: trailing byte after the planes", ack(0, 1, 3, 1, 0x01, 0), ErrMalformed},
		{"ack: empty vector", ack(0, 0x80, 0), ErrMalformed},
		{"ack: run count cut off", ack(0, 0x81), ErrTruncated},
		{"ack: split run", ack(0, 0x81, 2, 4, 2, 6, 1, 5, 0x02), ErrMalformed},
		{"ack: zero count", ack(0, 0x81, 1, 4, 0), ErrMalformed},
		{"ack: run past 2^32", ack(0, 0x81, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 2, 5, 0x02), ErrMalformed},
		{"ack: base below the least mark", ack(0, 0x81, 1, 4, 2, 5, 0x03), ErrMalformed},
		// Base 5 above mark 3, reached by wrapping: 5 + (2³²-2).
		{"ack: base above the least mark", ack(0, 0xa0, 1, 4, 2, 5, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff), ErrMalformed},
		{"ack: width wider than the spread", ack(0, 0x82, 1, 4, 2, 5, 0x04), ErrMalformed},
		{"ack: width over 32", ack(0, 0xa1, 1, 4, 2, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0x02), ErrMalformed},
		{"ack: nonzero padding bits", ack(0, 0x81, 1, 4, 2, 5, 0x82), ErrMalformed},
		{"ack: mark past 2^32-1", ack(0, 0x81, 1, 4, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x02), ErrMalformed},
		{"ack: mark at 2^32-1", ack(0, 0x81, 1, 4, 2, 0xfe, 0xff, 0xff, 0xff, 0x0f, 0x02), nil},
		{"ack: 33-bit base", ack(0, 0x80, 1, 4, 1, 0xff, 0xff, 0xff, 0xff, 0x10), ErrMalformed},
		{"ack: width 32 at full spread", ack(0, 0xa0, 1, 4, 2, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff), nil},
		{"ack: watermarks cut short", ack(0, 0x82, 1, 4, 5, 5, 0x02), ErrTruncated},
		{"ack: trailing byte", ack(0, 0x81, 1, 4, 2, 5, 0x02, 0), ErrMalformed},
		{"ack: base cut off", ack(0, 0x81, 1, 4, 2), ErrTruncated},
	}
	for _, tc := range cases {
		p, err := Unmarshal(tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if err == nil && !bytes.Equal(p.Marshal(), tc.data) {
			t.Errorf("%s: accepted %x but re-marshals %x", tc.name, tc.data, p.Marshal())
		}
	}
}

// TestControlCapsExpandedLength: MaxAckEntries bounds what a list
// expands to, not what it costs in bytes, and a claim beyond it is
// refused before the decoder allocates for it — in one run or summed
// over several, in a hello or an ack.
func TestControlCapsExpandedLength(t *testing.T) {
	over := binary.AppendUvarint(nil, MaxAckEntries+1)
	full := binary.AppendUvarint(nil, MaxAckEntries)
	billions := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // 2³²-1 ids from id 0
	hdr := NewHello(1, 0, Hello{}).Marshal()[:HeaderBytes]
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// An ack with no ranks, up to its form byte.
	ackHdr := NewAck(1, 2, Ack{}).Marshal()[:HeaderBytes+2]
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"one run over the cap", join(hdr, []byte{0, 1, 0}, over), ErrMalformed},
		{"one run of 2^32-1 ids", join(hdr, []byte{0, 1, 0}, billions), ErrMalformed},
		{"ack run over the cap", join(ackHdr, []byte{0x81, 1, 0}, over), ErrMalformed},
		{"ack generation run over the cap", join(ackHdr[:HeaderBytes+1], []byte{1, 0}, over), ErrMalformed},
		// Within the cap, but a 1-bit watermark costs an eighth of a
		// byte: three bytes cannot carry 2¹⁶ of them.
		{"ack run over its bytes", join(ackHdr, []byte{0x81, 1, 0}, full, []byte{0, 7, 7, 7}), ErrTruncated},
		{"ack ranks over their bytes", join(ackHdr[:HeaderBytes+1], []byte{1, 0}, full, []byte{7, 7, 7}), ErrTruncated},
		// A plane past the cap's ids, and one at the cap in three bytes.
		{"ack planes over the cap", join(ackHdr, []byte{1, 0}, binary.AppendUvarint(nil, MaxAckEntries/8+1), []byte{7, 7, 7}), ErrMalformed},
		{"ack planes over their bytes", join(ackHdr, []byte{2, 0}, binary.AppendUvarint(nil, MaxAckEntries/8), []byte{7, 7, 7}), ErrTruncated},
	}
	for _, tc := range cases {
		var rx Packet
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 16; i++ {
			err = UnmarshalInto(&rx, tc.data)
		}
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		// What a refusal allocates is its error, whatever the claim: the
		// smallest claim here would be 256 KiB of ids.
		if perCall := (after.TotalAlloc - before.TotalAlloc) / 16; perCall > 1024 {
			t.Errorf("%s: refusing %d bytes allocated %d bytes", tc.name, len(tc.data), perCall)
		}
	}
	// Runs that each fit but together pass the cap are refused at the
	// run that passes it.
	split := join(hdr, []byte{0, 2, 0}, full, []byte{0, 1})
	if _, err := Unmarshal(split); !errors.Is(err, ErrMalformed) {
		t.Errorf("the cap, then one more id: err %v, want ErrMalformed", err)
	}
	// The cap itself is a legal list and a small packet.
	p := NewHello(1, 0, Hello{Peers: seq(0, MaxAckEntries)})
	if got, err := Unmarshal(p.Marshal()); err != nil || len(got.Hello.Peers) != MaxAckEntries || p.WireBytes() > 16 {
		t.Errorf("a %d-id run: %d ids back in %d bytes, err %v", MaxAckEntries, len(got.Hello.Peers), p.WireBytes(), err)
	}
}

// TestControlSizeBounds pins what the encoding is for: a dense view
// costs a few bytes whatever n is; an ack's watermark vector costs the
// bits of its spread a member — at most 2 when its marks span 4 values,
// none when they are all equal — plus a few bytes of runs, and its
// planes cost a bit a member each; and the worst
// list for either — no two neighbours consecutive, so every id is its
// own run, under marks of the full 32-bit spread — stays within twice
// the fixed-width layout it replaced (4 bytes an id in a hello, 8 bytes
// an entry in an ack, behind a 4-byte count).
func TestControlSizeBounds(t *testing.T) {
	const n = 1024
	dense := NewHello(1, 0, Hello{Peers: seq(0, n)})
	if dense.WireBytes() > 32 {
		t.Errorf("dense %d-peer hello is %d bytes, want ≤ 32", n, dense.WireBytes())
	}
	holed := slices.Concat(seq(0, 100), seq(101, 400), seq(600, n-500))
	if p := NewHello(1, 0, Hello{Peers: holed}); p.WireBytes() > 32 {
		t.Errorf("three-run %d-peer hello is %d bytes, want ≤ 32", len(holed), p.WireBytes())
	}
	window := func(n int, base uint32, span int) Ack {
		marks := make([]PeerMark, n)
		for i := range marks {
			marks[i] = PeerMark{Node: uint32(i), Watermark: base + uint32(i*7%span)}
		}
		return Ack{Watermark: base, Ranks: []GenRank{{Gen: base, Rank: 3}, {Gen: base + 1, Rank: 1}}, Peers: marks}
	}
	for _, base := range []uint32{0, 30, 1 << 20} {
		a := window(n, base, 4)
		if got := NewAck(1, 0, a).Bits(); got > 2*n+8*16 {
			t.Errorf("%d marks spanning 4 values from %d: %d bits, want ≤ 2 a member + 16 bytes", n, base, got)
		}
		offs := make([]PeerMark, n)
		for i, pm := range a.Peers {
			offs[i] = PeerMark{Node: pm.Node, Watermark: pm.Watermark - base}
		}
		a.Frontier, a.Planes, a.Peers = base, planesOf(offs), nil
		if got := NewAck(1, 0, a).Bits(); got > 2*n+8*16 {
			t.Errorf("%d offsets up to 3 above %d in planes: %d bits, want ≤ 2 a member + 16 bytes", n, base, got)
		}
	}
	for _, m := range []int{1, 192, n, MaxAckEntries} {
		for _, base := range []uint32{0, 9, 1 << 31} {
			if got := NewAck(1, 0, Ack{Watermark: base, Peers: window(m, base, 1).Peers}).Bits(); got > 8*16 {
				t.Errorf("%d equal marks at %d: %d bits, want ≤ 16 bytes", m, base, got)
			}
		}
	}
	for _, base := range []uint32{0, 1 << 14, 1 << 28, math.MaxUint32 - 2*n} {
		ids := make([]uint32, n)
		marks := make([]PeerMark, n)
		for i := range ids {
			ids[i] = base + 2*uint32(i)
			marks[i] = PeerMark{Node: ids[i], Watermark: math.MaxUint32 * uint32(i%2)}
		}
		oldHello, oldAck := HeaderBytes+5+4*n, HeaderBytes+12+8*n
		if got := NewHello(1, 0, Hello{Peers: ids}).WireBytes(); got > 2*oldHello {
			t.Errorf("alternating ids from %d: hello %d bytes, fixed-width layout was %d", base, got, oldHello)
		}
		if got := NewAck(1, 0, Ack{Peers: marks}).WireBytes(); got > 2*oldAck {
			t.Errorf("alternating ids from %d: ack %d bytes, fixed-width layout was %d", base, got, oldAck)
		}
	}
}

// TestControlSteadyStateZeroAlloc: a hello, an ack vector and an ack's
// planes over the whole id space, at the stream benchmark's n and the
// churn benchmark's, encode into a reused buffer and decode into a
// reused scratch without allocating — dense, and with the holes churn
// leaves.
func TestControlSteadyStateZeroAlloc(t *testing.T) {
	for _, n := range []int{192, 1024} {
		for _, holes := range []bool{false, true} {
			var ids []uint32
			var marks []PeerMark
			for id := 0; id < n; id++ {
				if holes && id%61 == 7 {
					continue
				}
				ids = append(ids, uint32(id))
				marks = append(marks, PeerMark{Node: uint32(id), Watermark: uint32(3 + id%5)})
			}
			ack := Ack{Watermark: 4, Ranks: []GenRank{{Gen: 4, Rank: 9}, {Gen: 5, Rank: 2}}, Peers: marks}
			view := Ack{Watermark: 4, Ranks: ack.Ranks, Frontier: 3, Planes: planesOf(marks)}
			for _, p := range []Packet{NewHello(1, 0, Hello{Peers: ids}), NewAck(1, 4, ack), NewAck(1, 4, view)} {
				var rx Packet
				buf := p.AppendTo(nil)
				if err := UnmarshalInto(&rx, buf); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(50, func() {
					buf = p.AppendTo(buf[:0])
					if err := UnmarshalInto(&rx, buf); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("n=%d holes=%v type %d: %.1f allocations per round trip, want 0", n, holes, p.Env.Type, allocs)
				}
				if !slices.Equal(rx.Hello.Peers, p.Hello.Peers) || !slices.Equal(rx.Ack.Peers, p.Ack.Peers) ||
					!slices.Equal(offsets(rx.Ack.Planes), offsets(p.Ack.Planes)) {
					t.Errorf("n=%d holes=%v type %d: scratch decode differs", n, holes, p.Env.Type)
				}
			}
		}
	}
}
