// Package wire is the compact binary codec for the cluster and stream
// runtimes' protocol messages: network-coded packets (rlnc.Coded), raw
// tokens (token.Token, for the store-and-forward baseline), streaming
// progress acknowledgements (Ack), membership announcements (Hello),
// address-book exchanges for the socket transport (Announce), and a
// small envelope header carrying version, message type, sender and
// epoch.
//
// The codec is the serialization boundary between the synchronous
// simulator world (in-memory Message values whose cost is their Bits()
// accounting) and the asynchronous cluster world (byte slices on a
// Transport). Two invariants tie the worlds together:
//
//   - Marshal and Unmarshal round-trip exactly: Unmarshal(Marshal(p))
//     reproduces p, and Marshal(Unmarshal(b)) reproduces b for every b
//     the decoder accepts (enforced by FuzzWireRoundTrip). The decoder
//     rejects trailing bytes and nonzero spare bits so every accepted
//     byte string has exactly one packet value.
//
//   - Packet implements the simulator's Bits() accounting by delegating
//     to the wrapped message, so wire costs and simulator costs are
//     directly comparable. The fixed framing overhead (header plus
//     length fields) is reported separately by WireBytes; tests pin the
//     exact relation between the two.
//
// Wire layout (all integers little-endian):
//
//	offset  size  field
//	0       1     version (currently 4; anything else is rejected)
//	1       1     type (1 = coded, 2 = token, 3 = ack, 4 = hello, 5 = announce)
//	2       4     sender (uint32 node id)
//	6       4     epoch (uint32 sender-local sequence/round)
//
// followed by a type-specific body:
//
//	coded:    uint32 k, uint32 vecBits, ceil(vecBits/8) bytes (LSB-first)
//	token:    uint64 uid, uint32 payloadBits, ceil(payloadBits/8) bytes
//	ack:      uvarint watermark, uvarint nGenRuns,
//	          nGenRuns × (uvarint gen, uvarint count, count × uvarint rank),
//	          uint8 form, then either (form ≤ 32: planes) uvarint
//	          frontier, and unless planes is 0 uvarint planeBytes,
//	          planes × planeBytes bytes (LSB-first), or (form = 0x80 |
//	          width: a vector) uvarint nRuns ≥ 1, nRuns × (uvarint start,
//	          uvarint count), uvarint base, then each watermark − base in
//	          width bits, LSB-first
//	hello:    uint8 flags (0 = announce, 1 = leave; others rejected),
//	          uvarint nRuns,  nRuns × (uvarint start, uvarint count)
//	announce: uint8 op (0 = ping, 1 = pong, 2 = lookup, 3 = lookup-ok;
//	          others rejected), uint64 msgID,
//	          uint32 nAddrs, nAddrs × (uint32 node, uint16 addrLen,
//	          addrLen bytes "host:port", addrLen ≤ MaxAddrBytes)
//
// Id lists are run-length coded. A hello's peer list, an ack's
// watermark vector and an ack's ranks (by generation) are, in every run
// the repo makes, a handful of stretches of consecutive ascending ids;
// on the wire each stretch is one run (start, count) standing for the
// ids start, start+1, …, start+count-1 in that order. runEnd cuts a list
// into runs — maximal ones, in list order — so any list round-trips
// entry for entry (unsorted, duplicated, id 2³²-1 followed by id 0: each
// break just starts a new run). An ack carries its view of every
// node's watermark in one of two forms. The planes are bit-sliced: plane
// l holds bit l of every id's offset above the frontier, so they cost
// planes × planeBytes bytes however the ids fall, and end at the last id
// with a nonzero offset. A vector spells marks id by id, as offsets from
// their least (base) at the bits of the greatest (width, 0 when all are
// equal). uvarint is encoding/binary's, at most 32 bits wide here. The
// encoding is canonical, which keeps Marshal(Unmarshal(b)) == b: the
// decoder rejects a count of zero, a run that continues the one before
// it (the encoder would have merged them), a run reaching past id 2³²-1,
// a varint with a padding zero group or more than 32 bits, a base other
// than the least mark, a width other than the greatest offset's, nonzero
// spare bits, a watermark past 2³²-1, an empty vector, a form over 32
// planes or bits, a zero top plane and a last plane byte zero in every
// plane. MaxAckEntries caps the expanded length of a list, checked
// against each run's count before the run is expanded, and the ids a
// plane covers: a few bytes cannot make the decoder allocate for 2³² ids.
//
// Wrap policy: Sender and Epoch are 32-bit on the wire and do NOT wrap.
// The constructors (NewCoded, NewToken, NewAck, NewHello) panic on a
// sender or epoch outside [0, MaxUint32] instead of silently truncating
// the int — aliasing epoch g with g+2^32 would corrupt ack and rank
// bookkeeping on long streams. Callers that stream more than 2^32
// generations must shard onto a fresh stream (internal/stream validates
// Config.Generations against MaxEpoch up front).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// Version is the codec version byte emitted by Marshal and required by
// Unmarshal.
const Version = 4

// HeaderBytes is the size of the envelope header on the wire.
const HeaderBytes = 10

// HeaderBits is the envelope overhead in bits, for cost accounting that
// wants to charge framing on top of Packet.Bits().
const HeaderBits = HeaderBytes * 8

// MaxVecBits caps the bit length the decoder accepts for a coded vector
// or token payload. It is far above anything the experiments use and
// exists only to bound decoder work on adversarial input.
const MaxVecBits = 1 << 24

// Type discriminates the message kinds the codec carries.
type Type uint8

const (
	// TypeCoded is a network-coded packet: k, coefficient vector and
	// coded payload in one bit vector.
	TypeCoded Type = 1
	// TypeToken is a raw token: UID plus payload, the store-and-forward
	// baseline's unit of exchange.
	TypeToken Type = 2
	// TypeAck is a streaming progress acknowledgement: the sender's
	// per-generation rank summary plus its gossip view of every node's
	// delivery watermark, the control traffic that lets internal/stream
	// retire fully-decoded generations and advance the window.
	TypeAck Type = 3
	// TypeHello is a membership announcement: a joining (or gracefully
	// leaving) node tells peers it exists (or is going away) and shares
	// its current live-peer view, the control traffic that lets the
	// cluster and stream runtimes run with dynamic membership.
	TypeHello Type = 4
	// TypeAnnounce is the socket transport's address-book exchange: a
	// MsgID-correlated request/response pair (ping/pong for bootstrap,
	// lookup/lookup-ok for targeted address resolution) carrying
	// node-id → host:port entries. It is transport-level control — the
	// in-process transports never emit it, and the gossip runtimes
	// never see it (internal/udpnet consumes it in its read loop).
	TypeAnnounce Type = 5
)

// vectorForm marks an ack body's form byte as a vector's; without it the
// byte is a plane count. The low bits hold the width either way.
const vectorForm = 0x80

// MaxAckEntries caps the list lengths the decoder accepts in an ack,
// hello or announce body — for the run-length coded id lists the
// expanded length, whatever the runs cost in bytes. Like MaxVecBits it
// only bounds decoder work and memory on adversarial input.
const MaxAckEntries = 1 << 16

// MaxAddrBytes caps one announce entry's host:port string. Far above
// any real address (a bracketed IPv6 literal with scope and port fits
// in well under 64 bytes); it exists to bound decoder work and keep
// the encoder honest (AppendTo panics beyond it).
const MaxAddrBytes = 255

// MaxSender and MaxEpoch are the largest envelope values the 32-bit
// wire fields can carry. The constructors panic beyond them rather
// than alias (see the wrap policy in the package comment).
const (
	MaxSender = 1<<32 - 1
	MaxEpoch  = 1<<32 - 1
)

var (
	// ErrTruncated is wrapped by errors for packets shorter than their
	// declared layout.
	ErrTruncated = errors.New("wire: truncated packet")
	// ErrVersion is wrapped by errors for unsupported version bytes.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrType is wrapped by errors for unknown message types.
	ErrType = errors.New("wire: unknown message type")
	// ErrMalformed is wrapped by errors for packets that parse but
	// violate a structural invariant (length mismatch, trailing bytes,
	// nonzero spare bits, k exceeding the vector length).
	ErrMalformed = errors.New("wire: malformed packet")
)

// Envelope is the fixed packet header.
type Envelope struct {
	Version uint8
	Type    Type
	// Sender is the originating node id.
	Sender uint32
	// Epoch is a sender-local sequence or round number; the codec does
	// not interpret it.
	Epoch uint32
}

// GenRank is one entry of an ack's rank summary: the sender's span rank
// for one generation of its active window.
type GenRank struct {
	Gen  uint32
	Rank uint32
}

// PeerMark is one entry of an ack's gossip view: the highest delivery
// watermark the sender has learned for a node (its own or relayed).
type PeerMark struct {
	Node      uint32
	Watermark uint32
}

// Ack is the streaming control body. Watermark is the number of
// generations the sender has fully decoded and delivered in order;
// Ranks summarizes the sender's span rank per active generation.
// Frontier and Planes are the sender's view of every node's watermark:
// node i's is Frontier plus the offset whose bit l is bit i%64 of
// Planes[l][i/64], the planes all of one length. The encoder trims zero
// top planes and the zero words and bytes after the last nonzero offset,
// so a decoded Ack holds the same view in its shortest planes. Peers is
// the other form, an id-by-id vector, which the stream does not send: an
// ack carries one form, Frontier and Planes when Peers is empty.
type Ack struct {
	Watermark uint32
	Ranks     []GenRank
	Frontier  uint32
	Planes    [][]uint64
	Peers     []PeerMark
}

// Hello is the membership control body. Leaving distinguishes a
// graceful departure announcement from a join/alive announcement;
// Peers is the sender's current live-peer view, which receivers merge
// into their own so membership spreads transitively at gossip speed.
type Hello struct {
	Leaving bool
	Peers   []uint32
}

// AnnounceOp discriminates the four announce exchanges.
type AnnounceOp uint8

const (
	// AnnouncePing is a bootstrap request: "here is my address, tell me
	// yours". The body carries the sender's own advertised address.
	AnnouncePing AnnounceOp = 0
	// AnnouncePong answers a ping with the responder's address book.
	AnnouncePong AnnounceOp = 1
	// AnnounceLookup requests the addresses of specific node ids; its
	// entries carry the target ids with empty address strings.
	AnnounceLookup AnnounceOp = 2
	// AnnounceLookupOK answers a lookup with the entries the responder
	// could resolve (unknown targets are simply omitted).
	AnnounceLookupOK AnnounceOp = 3
)

// String returns the op's protocol name.
func (op AnnounceOp) String() string {
	switch op {
	case AnnouncePing:
		return "ping"
	case AnnouncePong:
		return "pong"
	case AnnounceLookup:
		return "lookup"
	case AnnounceLookupOK:
		return "lookup-ok"
	}
	return fmt.Sprintf("AnnounceOp(%d)", uint8(op))
}

// AddrEntry is one announce address-book entry: a node id bound to the
// host:port string peers should send its datagrams to. Lookup requests
// use an empty Addr as "resolve this id for me".
type AddrEntry struct {
	Node uint32
	Addr string
}

// Announce is the socket transport's control body: a request/response
// pair correlated by MsgID through the sender's inflight map (the
// D7024E pattern — the read loop parks no state, it just delivers the
// response to the channel registered under MsgID).
type Announce struct {
	Op    AnnounceOp
	MsgID uint64
	Addrs []AddrEntry
}

// Bits returns the body's information content under the simulator's
// accounting: op byte, 64-bit MsgID, and per entry a uint32 id, a
// uint16 length and the address bytes.
func (a Announce) Bits() int {
	bits := 8 + 64
	for _, e := range a.Addrs {
		bits += 48 + 8*len(e.Addr)
	}
	return bits
}

// Packet is one decoded protocol message: the envelope plus exactly one
// of the type-specific bodies (selected by Env.Type).
type Packet struct {
	Env Envelope
	// Coded is valid iff Env.Type == TypeCoded.
	Coded rlnc.Coded
	// Token is valid iff Env.Type == TypeToken.
	Token token.Token
	// Ack is valid iff Env.Type == TypeAck.
	Ack Ack
	// Hello is valid iff Env.Type == TypeHello.
	Hello Hello
	// Announce is valid iff Env.Type == TypeAnnounce.
	Announce Announce
}

// envelope builds the versioned header, enforcing the no-wrap policy:
// a sender or epoch the 32-bit wire fields cannot represent is a
// programming error (like marshaling an unknown type), not a wire
// condition, so it panics instead of aliasing value v with v+2^32.
func envelope(t Type, sender, epoch int) Envelope {
	// Compared in uint64 so the package still compiles where int is 32
	// bits (there the out-of-range half is simply unreachable).
	if sender < 0 || uint64(sender) > MaxSender {
		panic(fmt.Sprintf("wire: sender %d outside the 32-bit wire range", sender))
	}
	if epoch < 0 || uint64(epoch) > MaxEpoch {
		panic(fmt.Sprintf("wire: epoch %d outside the 32-bit wire range", epoch))
	}
	return Envelope{Version: Version, Type: t, Sender: uint32(sender), Epoch: uint32(epoch)}
}

// NewCoded wraps a coded message in a versioned envelope. It panics on
// a sender or epoch outside the 32-bit wire range (see the wrap policy
// in the package comment).
func NewCoded(sender, epoch int, c rlnc.Coded) Packet {
	return Packet{Env: envelope(TypeCoded, sender, epoch), Coded: c}
}

// NewToken wraps a raw token in a versioned envelope. It panics on a
// sender or epoch outside the 32-bit wire range.
func NewToken(sender, epoch int, t token.Token) Packet {
	return Packet{Env: envelope(TypeToken, sender, epoch), Token: t}
}

// NewAck wraps a streaming acknowledgement in a versioned envelope. It
// panics on a sender or epoch outside the 32-bit wire range.
func NewAck(sender, epoch int, a Ack) Packet {
	return Packet{Env: envelope(TypeAck, sender, epoch), Ack: a}
}

// NewHello wraps a membership announcement in a versioned envelope. It
// panics on a sender or epoch outside the 32-bit wire range.
func NewHello(sender, epoch int, h Hello) Packet {
	return Packet{Env: envelope(TypeHello, sender, epoch), Hello: h}
}

// NewAnnounce wraps an address-book exchange in a versioned envelope.
// It panics on a sender or epoch outside the 32-bit wire range.
func NewAnnounce(sender, epoch int, a Announce) Packet {
	return Packet{Env: envelope(TypeAnnounce, sender, epoch), Announce: a}
}

// Bits returns the wrapped message's size under the simulator's
// accounting (rlnc.Coded.Bits or token.Token.Bits; for an ack or a hello
// every body byte but the list-length fields), which is what makes wire
// costs comparable with dynnet.Metrics. Framing overhead is excluded;
// see HeaderBits and WireBytes.
func (p Packet) Bits() int { return p.Size().Bits }

// WireBytes returns the exact marshaled size in bytes.
func (p Packet) WireBytes() int { return p.Size().Bytes }

// Size is a packet measured. A sender, which encodes anyway, takes the
// bits from Encode instead.
type Size struct {
	// Bits is Packet.Bits: the body's information content.
	Bits int
	// Bytes is Packet.WireBytes: header, length fields and body.
	Bytes int
}

// Size measures the packet: for a hello or an ack, Bytes is HeaderBytes
// plus Bits/8 plus the body's list-length fields. What a list costs is
// what its runs encode to, so a hello or an ack is measured by encoding
// it.
func (p *Packet) Size() Size {
	switch p.Env.Type {
	case TypeCoded:
		return Size{Bits: p.Coded.Bits(), Bytes: HeaderBytes + 8 + (p.Coded.Vec.Len()+7)/8}
	case TypeToken:
		return Size{Bits: p.Token.Bits(), Bytes: HeaderBytes + 12 + (p.Token.Payload.Len()+7)/8}
	case TypeAck, TypeHello:
		out, bits := p.Encode(nil)
		return Size{Bits: bits, Bytes: len(out)}
	case TypeAnnounce:
		sz := Size{Bits: p.Announce.Bits(), Bytes: HeaderBytes + 13}
		for _, e := range p.Announce.Addrs {
			sz.Bytes += 6 + len(e.Addr)
		}
		return sz
	}
	return Size{Bytes: HeaderBytes}
}

// runEnd is the run iterator every id list on the wire is cut by (an
// ack's encoder spells it out to find the marks' spread on the way): the
// end of the maximal run starting at list[lo], that is, the ids of
// list[lo:end] are consecutive and ascending and list[end] (if any)
// does not continue them. A run never wraps from id 2³²-1 to id 0.
// Callers pass a constant id function and runEnd is small enough to
// inline into them, so id becomes a plain field load; grown past the
// inliner's budget (an unrolled variant was tried) id turns into an
// indirect call per entry and the scan runs three times slower.
func runEnd[T any](list []T, lo int, id func(T) uint32) int {
	next := id(list[lo]) + 1
	hi := lo + 1
	for ; hi < len(list) && next != 0 && id(list[hi]) == next; hi++ {
		next++
	}
	return hi
}

// RunEnd is runEnd over a hello's peer list, for a receiver that merges
// the list run by run: the codec's rule for where a run ends is the only
// one.
func RunEnd(peers []uint32, lo int) int { return runEnd(peers, lo, peerID) }

func peerID(id uint32) uint32  { return id }
func rankGen(r GenRank) uint32 { return r.Gen }

// uvarintLen is the encoded size of v as a minimal uvarint.
func uvarintLen(v uint32) int { return (bits.Len32(v|1) + 6) / 7 }

// appendUvarint appends v as a minimal uvarint.
func appendUvarint(b []byte, v uint32) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, uint64(v))
}

// Up to 8 bits wide, eight offsets are one word of width bytes, which
// the byte lanes of a uint64 pack and unpack in three shifts of halves.
const lanes8, lanes16, lanes32 = 0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff

// packMarks appends each mark's offset from base in width bits,
// LSB-first, zero spare bits up to the next byte: eight at a time from
// byte lanes up to 8 bits wide, else a bit at a time. Like unpackRun it
// stays out of line so that its loops keep their values in registers.
//
//go:noinline
func packMarks(out []byte, marks []PeerMark, base uint32, width int) []byte {
	if width == 0 {
		return out
	}
	w := uint(width) & 63
	for width <= 8 && len(marks) > 0 {
		g, n := (*[8]PeerMark)(nil), min(8, len(marks))
		if n == 8 {
			g = (*[8]PeerMark)(marks)
		} else { // the last group, filled up with zero offsets
			g = &[8]PeerMark{{0, base}, {0, base}, {0, base}, {0, base}, {0, base}, {0, base}, {0, base}, {0, base}}
			copy(g[:], marks)
		}
		marks = marks[n:]
		x := (uint64(byte(g[0].Watermark-base)) | uint64(byte(g[1].Watermark-base))<<8) |
			(uint64(byte(g[2].Watermark-base))<<16 | uint64(byte(g[3].Watermark-base))<<24) |
			(uint64(byte(g[4].Watermark-base))<<32 | uint64(byte(g[5].Watermark-base))<<40 |
				(uint64(byte(g[6].Watermark-base))<<48 | uint64(byte(g[7].Watermark-base))<<56))
		x = x&lanes8 | x>>8&lanes8<<w
		x = x&lanes16 | x>>16&lanes16<<(2*w)
		out = binary.LittleEndian.AppendUint64(out, x&lanes32|x>>32<<(4*w))
		out = out[:len(out)-8+(width*n+7)/8]
	}
	var acc uint64
	nb := uint(0)
	for _, pm := range marks {
		acc |= uint64(pm.Watermark-base) << (nb & 63)
		for nb += w; nb >= 8; nb -= 8 {
			out = append(out, byte(acc))
			acc >>= 8
		}
	}
	if nb > 0 {
		out = append(out, byte(acc))
	}
	return out
}

// putUvarint writes v into the byte the encoder left for it at out[at],
// shifting what follows right when v needs more.
func putUvarint(out []byte, at int, v uint32) []byte {
	if w := uvarintLen(v); w > 1 {
		out = slices.Grow(out, w-1)[:len(out)+w-1]
		copy(out[at+w:], out[at+1:])
	}
	binary.PutUvarint(out[at:], uint64(v))
	return out
}

// trimPlanes is the planes up to the top nonzero one and the bytes each
// needs: up to the last byte that is nonzero in some plane.
func trimPlanes(planes [][]uint64) (width, n int) {
	for l, pl := range planes {
		for w, x := range pl {
			if x != 0 {
				width, n = l+1, max(n, 8*w+(bits.Len64(x)+7)/8)
			}
		}
	}
	return width, n
}

// Marshal serializes the packet into a fresh buffer. It panics on an
// envelope type the codec does not know (a programming error, not a
// wire condition).
func (p Packet) Marshal() []byte {
	return p.AppendTo(nil)
}

// AppendTo appends the packet's serialization to buf and returns the
// extended slice: Encode without the bits.
func (p Packet) AppendTo(buf []byte) []byte {
	out, _ := p.Encode(buf)
	return out
}

// Encode appends the packet's serialization to buf and returns the
// extended slice with Bits(), in one pass: a hello's or an ack's id list
// is cut into runs as they are written, and the run count put in ahead
// of them after. It reserves room per type first — the exact size of a
// coded, token or announce packet; an ack's fixed fields, five bytes a
// rank, a byte a mark and a few runs' headers; 64 bytes of runs for a
// hello, whatever its length — so it allocates nothing when buf has that
// much spare capacity (the hot path hands it a recycled buffer, buf[:0])
// and once otherwise, unless a list's runs or marks outgrow the
// reservation. Like Marshal it panics on an unknown envelope type, on an
// ack whose planes are not all of one length, and on an ack with both a
// vector and a frontier or nonzero planes.
func (p *Packet) Encode(buf []byte) ([]byte, int) {
	var sz Size
	var out []byte
	switch p.Env.Type {
	case TypeAck:
		a := &p.Ack
		reserve := HeaderBytes + 40 + 5*len(a.Ranks) + len(a.Peers)
		if len(a.Planes) > 0 {
			reserve += 8 * len(a.Planes) * len(a.Planes[0])
		}
		out = slices.Grow(buf, reserve)
	case TypeHello:
		out = slices.Grow(buf, HeaderBytes+66)
	default:
		sz = p.Size()
		out = slices.Grow(buf, sz.Bytes)
	}
	out = append(out, p.Env.Version, byte(p.Env.Type))
	out = binary.LittleEndian.AppendUint32(out, p.Env.Sender)
	out = binary.LittleEndian.AppendUint32(out, p.Env.Epoch)
	switch p.Env.Type {
	case TypeCoded:
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Coded.K))
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Coded.Vec.Len()))
		out = p.Coded.Vec.AppendBytes(out)
	case TypeToken:
		out = binary.LittleEndian.AppendUint64(out, uint64(p.Token.UID))
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Token.Payload.Len()))
		out = p.Token.Payload.AppendBytes(out)
	case TypeAck:
		a := &p.Ack
		out = appendUvarint(out, a.Watermark)
		at, genRuns := len(out), 0
		out = append(out, 0) // the generation run count, put in below
		for lo, hi := 0, 0; lo < len(a.Ranks); lo, genRuns = hi, genRuns+1 {
			hi = runEnd(a.Ranks, lo, rankGen)
			out = appendUvarint(out, a.Ranks[lo].Gen)
			out = appendUvarint(out, uint32(hi-lo))
			for _, r := range a.Ranks[lo:hi] {
				out = appendUvarint(out, r.Rank)
			}
		}
		out = putUvarint(out, at, uint32(genRuns))
		fields := uvarintLen(uint32(genRuns))
		width, planeBytes := trimPlanes(a.Planes)
		if len(a.Peers) == 0 {
			out = appendUvarint(append(out, byte(width)), a.Frontier)
			if width > 0 {
				out = appendUvarint(out, uint32(planeBytes))
				fields += uvarintLen(uint32(planeBytes))
				for _, pl := range a.Planes[:width] { // whole words, then the spare bytes cut
					for _, x := range pl[:(planeBytes+7)/8] {
						out = binary.LittleEndian.AppendUint64(out, x)
					}
					out = out[:len(out)-(-planeBytes&7)]
				}
			}
			return out, 8 * (len(out) - len(buf) - HeaderBytes - fields)
		}
		if width > 0 || a.Frontier != 0 {
			panic("wire: marshal of an ack with both a vector and planes")
		}
		at, runs, least, most := len(out), 0, ^uint32(0), uint32(0)
		out = append(out, 0, 0) // the form and the run count, put in below
		for lo, hi, peers := 0, 0, a.Peers; lo < len(peers); lo, runs = hi, runs+1 {
			// runEnd's rule, with the least and greatest mark found on the way.
			for next := uint64(peers[lo].Node); hi < len(peers) && uint64(peers[hi].Node) == next; hi, next = hi+1, next+1 {
				least, most = min(least, peers[hi].Watermark), max(most, peers[hi].Watermark)
			}
			out = appendUvarint(appendUvarint(out, peers[lo].Node), uint32(hi-lo))
		}
		width = bits.Len32(most - least)
		out[at] = vectorForm | byte(width)
		out = packMarks(appendUvarint(out, least), a.Peers, least, width)
		out = putUvarint(out, at+1, uint32(runs))
		// Bits is the body less its length fields: the two run counts.
		return out, 8 * (len(out) - len(buf) - HeaderBytes - fields - uvarintLen(uint32(runs)))
	case TypeHello:
		var flags byte
		if p.Hello.Leaving {
			flags = 1
		}
		out = append(out, flags, 0) // the run count, put in below
		at, runs, peers := len(out)-1, 0, p.Hello.Peers
		for lo, hi := 0, 0; lo < len(peers); lo, runs = hi, runs+1 {
			hi = runEnd(peers, lo, peerID)
			out = appendUvarint(out, peers[lo])
			out = appendUvarint(out, uint32(hi-lo))
		}
		out = putUvarint(out, at, uint32(runs))
		return out, 8 * (len(out) - len(buf) - HeaderBytes - uvarintLen(uint32(runs)))
	case TypeAnnounce:
		a := &p.Announce
		if a.Op > AnnounceLookupOK {
			panic(fmt.Sprintf("wire: marshal of unknown announce op %d", a.Op))
		}
		out = append(out, byte(a.Op))
		out = binary.LittleEndian.AppendUint64(out, a.MsgID)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(a.Addrs)))
		for _, e := range a.Addrs {
			if len(e.Addr) > MaxAddrBytes {
				panic(fmt.Sprintf("wire: announce addr for node %d is %d bytes (max %d)", e.Node, len(e.Addr), MaxAddrBytes))
			}
			out = binary.LittleEndian.AppendUint32(out, e.Node)
			out = binary.LittleEndian.AppendUint16(out, uint16(len(e.Addr)))
			out = append(out, e.Addr...)
		}
	default:
		panic(fmt.Sprintf("wire: marshal of unknown type %d", p.Env.Type))
	}
	return out, sz.Bits
}

// Unmarshal parses one packet, validating the version, type, declared
// lengths, spare bits and the absence of trailing bytes, so that
// Marshal(Unmarshal(b)) == b for every accepted b.
func Unmarshal(data []byte) (Packet, error) {
	var p Packet
	if err := UnmarshalInto(&p, data); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// UnmarshalInto parses one packet into p, reusing p's body storage (the
// coded vector, token payload and ack entry slices) so a receive loop
// that decodes every packet into one per-node scratch Packet allocates
// nothing in steady state. It validates exactly what Unmarshal does and
// accepts exactly the same byte strings. On success only the body
// selected by the decoded envelope type is meaningful; the other bodies
// hold stale storage kept for reuse, and any previously decoded body is
// overwritten, so callers that retain decoded contents past the next
// UnmarshalInto call must copy them first. On error p's contents are
// unspecified (but safe to reuse).
func UnmarshalInto(p *Packet, data []byte) error {
	if len(data) < HeaderBytes {
		return fmt.Errorf("%w: %d bytes < %d-byte header", ErrTruncated, len(data), HeaderBytes)
	}
	env := Envelope{
		Version: data[0],
		Type:    Type(data[1]),
		Sender:  binary.LittleEndian.Uint32(data[2:6]),
		Epoch:   binary.LittleEndian.Uint32(data[6:10]),
	}
	if env.Version != Version {
		return fmt.Errorf("%w: %d", ErrVersion, env.Version)
	}
	body := data[HeaderBytes:]
	switch env.Type {
	case TypeCoded:
		if len(body) < 8 {
			return fmt.Errorf("%w: coded body %d bytes < 8", ErrTruncated, len(body))
		}
		k := binary.LittleEndian.Uint32(body[0:4])
		vecBits := binary.LittleEndian.Uint32(body[4:8])
		if vecBits > MaxVecBits {
			return fmt.Errorf("%w: coded vector %d bits exceeds cap", ErrMalformed, vecBits)
		}
		if k > vecBits {
			return fmt.Errorf("%w: k=%d exceeds vector length %d", ErrMalformed, k, vecBits)
		}
		if err := bitvecFromWire(&p.Coded.Vec, body[8:], int(vecBits)); err != nil {
			return err
		}
		p.Env = env
		p.Coded.K = int(k)
		return nil
	case TypeToken:
		if len(body) < 12 {
			return fmt.Errorf("%w: token body %d bytes < 12", ErrTruncated, len(body))
		}
		uid := binary.LittleEndian.Uint64(body[0:8])
		payloadBits := binary.LittleEndian.Uint32(body[8:12])
		if payloadBits > MaxVecBits {
			return fmt.Errorf("%w: token payload %d bits exceeds cap", ErrMalformed, payloadBits)
		}
		if err := bitvecFromWire(&p.Token.Payload, body[12:], int(payloadBits)); err != nil {
			return err
		}
		p.Env = env
		p.Token.UID = token.UID(uid)
		return nil
	case TypeAck:
		if err := readAck(body, &p.Ack); err != nil {
			return err
		}
		p.Env = env
		return nil
	case TypeHello:
		if len(body) < 2 {
			return fmt.Errorf("%w: hello body %d bytes < 2", ErrTruncated, len(body))
		}
		if body[0] > 1 {
			return fmt.Errorf("%w: hello flags %d (only 0/1 defined)", ErrMalformed, body[0])
		}
		nRuns, n := uvarint(body[1:])
		if n <= 0 {
			return varintError(n, "hello run count")
		}
		rest := body[1+n:]
		h := &p.Hello
		h.Peers = h.Peers[:0]
		prevEnd := noRun
		for r := uint32(0); r < nRuns; r++ {
			start, count, n, err := readRun(rest, prevEnd, len(h.Peers))
			if err != nil {
				return fmt.Errorf("hello run %d: %w", r, err)
			}
			rest = rest[n:]
			prevEnd = uint64(start) + uint64(count)
			h.Peers = slices.Grow(h.Peers, count)[:len(h.Peers)+count]
			fillRun(h.Peers[len(h.Peers)-count:], start)
		}
		if len(rest) != 0 {
			return fmt.Errorf("%w: %d trailing hello bytes after %d runs", ErrMalformed, len(rest), nRuns)
		}
		h.Leaving = body[0] == 1
		p.Env = env
		return nil
	case TypeAnnounce:
		if len(body) < 13 {
			return fmt.Errorf("%w: announce body %d bytes < 13", ErrTruncated, len(body))
		}
		if body[0] > byte(AnnounceLookupOK) {
			return fmt.Errorf("%w: announce op %d (only 0-3 defined)", ErrMalformed, body[0])
		}
		nAddrs := binary.LittleEndian.Uint32(body[9:13])
		if nAddrs > MaxAckEntries {
			return fmt.Errorf("%w: announce entry count %d exceeds cap", ErrMalformed, nAddrs)
		}
		a := &p.Announce
		a.Op = AnnounceOp(body[0])
		a.MsgID = binary.LittleEndian.Uint64(body[1:9])
		a.Addrs = a.Addrs[:0]
		rest := body[13:]
		for i := 0; i < int(nAddrs); i++ {
			if len(rest) < 6 {
				return fmt.Errorf("%w: announce entry %d header: %d bytes < 6", ErrTruncated, i, len(rest))
			}
			node := binary.LittleEndian.Uint32(rest[0:4])
			alen := int(binary.LittleEndian.Uint16(rest[4:6]))
			if alen > MaxAddrBytes {
				return fmt.Errorf("%w: announce addr %d bytes exceeds cap %d", ErrMalformed, alen, MaxAddrBytes)
			}
			rest = rest[6:]
			if len(rest) < alen {
				return fmt.Errorf("%w: announce entry %d addr: %d bytes < %d", ErrTruncated, i, len(rest), alen)
			}
			a.Addrs = append(a.Addrs, AddrEntry{Node: node, Addr: string(rest[:alen])})
			rest = rest[alen:]
		}
		if len(rest) != 0 {
			return fmt.Errorf("%w: %d trailing announce bytes", ErrMalformed, len(rest))
		}
		p.Env = env
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrType, env.Type)
	}
}

// readAck decodes an ack body into a, reusing its storage, and leaves
// the form it does not carry empty. A list is expanded only once the
// bytes left can hold it: a rank takes at least a byte, a plane
// planeBytes of them, and the vector's ids are expanded with their
// watermarks, by unpackRun, after every run and the packed offsets'
// length have been checked.
func readAck(b []byte, a *Ack) (err error) {
	mark, n := uvarint(b)
	if n <= 0 {
		return varintError(n, "ack watermark")
	}
	genRuns, m := uvarint(b[n:])
	if m <= 0 {
		return varintError(m, "ack generation run count")
	}
	ranks := a.Ranks[:0]
	b, prevEnd := b[n+m:], noRun
	for r := uint32(0); r < genRuns; r++ {
		gen, count, n, err := readRun(b, prevEnd, len(ranks))
		if err != nil {
			return fmt.Errorf("ack generation run %d: %w", r, err)
		}
		b, prevEnd = b[n:], uint64(gen)+uint64(count)
		if count > len(b) {
			return fmt.Errorf("%w: ack generation run %d: %d bytes for %d ranks", ErrTruncated, r, len(b), count)
		}
		for i := range count {
			rank, n := uvarint(b)
			if n <= 0 {
				return varintError(n, "ack rank")
			}
			b, ranks = b[n:], append(ranks, GenRank{Gen: gen + uint32(i), Rank: rank})
		}
	}
	a.Watermark, a.Ranks = mark, ranks
	if len(b) == 0 {
		return fmt.Errorf("%w: ack ends before its form", ErrTruncated)
	}
	form := b[0]
	width := int(form &^ vectorForm)
	if width > 32 {
		return fmt.Errorf("%w: ack form %#x, width %d over 32", ErrMalformed, form, width)
	}
	if form&vectorForm == 0 {
		if a.Frontier, n = uvarint(b[1:]); n <= 0 {
			return varintError(n, "ack frontier")
		}
		if b, err = readPlanes(b[1+n:], width, a); err != nil {
			return err
		} else if len(b) != 0 {
			return fmt.Errorf("%w: %d trailing ack bytes", ErrMalformed, len(b))
		}
		a.Peers = a.Peers[:0]
		return nil
	}
	a.Frontier, a.Planes = 0, a.Planes[:0]
	nRuns, n := uvarint(b[1:])
	if n <= 0 {
		return varintError(n, "ack run count")
	} else if nRuns == 0 {
		return fmt.Errorf("%w: an empty ack vector", ErrMalformed)
	}
	runs, total := b[1+n:], 0
	b, prevEnd = runs, noRun
	for r := uint32(0); r < nRuns; r++ {
		start, count, n, err := readRun(b, prevEnd, total)
		if err != nil {
			return fmt.Errorf("ack run %d: %w", r, err)
		}
		b, prevEnd, total = b[n:], uint64(start)+uint64(count), total+count
	}
	base, n := uvarint(b)
	if n <= 0 {
		return varintError(n, "ack watermark base")
	}
	b = b[n:]
	switch used := uint64(width) * uint64(total); {
	case uint64(len(b)) < (used+7)/8:
		return fmt.Errorf("%w: %d bytes for %d %d-bit watermarks", ErrTruncated, len(b), total, width)
	case uint64(len(b)) != (used+7)/8:
		return fmt.Errorf("%w: %d trailing ack bytes", ErrMalformed, uint64(len(b))-(used+7)/8)
	case used%8 != 0 && b[len(b)-1]>>(used%8) != 0:
		return fmt.Errorf("%w: nonzero spare bits after the watermarks", ErrMalformed)
	}
	peers := slices.Grow(a.Peers[:0], total)[:total]
	j, acc := 0, uint64(0)
	for i := 0; i < total; {
		start, n := uvarint(runs)
		count, m := uvarint(runs[n:])
		runs = runs[n+m:]
		j, acc = unpackRun(peers[i:i+int(count)], start, b, i, j, acc, base, uint(width))
		i += int(count)
	}
	a.Peers = peers
	// The marks that prove base and width canonical usually come early.
	switch {
	case !slices.ContainsFunc(peers, func(pm PeerMark) bool { return pm.Watermark == base }):
		return fmt.Errorf("%w: watermark base %d is below the least mark", ErrMalformed, base)
	case width > 0 && !slices.ContainsFunc(peers, func(pm PeerMark) bool { return (pm.Watermark-base)>>(width-1) != 0 }):
		return fmt.Errorf("%w: watermark width %d wider than the spread", ErrMalformed, width)
	case uint64(base)+1<<width-1 > 1<<32-1 && slices.ContainsFunc(peers, func(pm PeerMark) bool { return pm.Watermark < base }):
		return fmt.Errorf("%w: a watermark passes 2^32-1", ErrMalformed)
	}
	return nil
}

// readPlanes decodes an ack's width planes from the head of b into
// a.Planes, reusing its storage, and returns what follows them.
// It checks their lengths before it expands them, and the canonical form.
func readPlanes(b []byte, width int, a *Ack) ([]byte, error) {
	if width == 0 {
		a.Planes = a.Planes[:0]
		return b, nil
	}
	size, n := uvarint(b)
	if n <= 0 {
		return nil, varintError(n, "ack plane length")
	}
	b = b[n:]
	nb := int(size)
	switch {
	case size > MaxAckEntries/8:
		return nil, fmt.Errorf("%w: ack planes of %d bytes pass the %d-entry cap", ErrMalformed, size, MaxAckEntries)
	case width*nb > len(b):
		return nil, fmt.Errorf("%w: %d bytes for %d ack planes of %d", ErrTruncated, len(b), width, nb)
	case nb == 0:
		return nil, fmt.Errorf("%w: %d empty ack planes", ErrMalformed, width)
	}
	var last byte
	for l := range width {
		last |= b[l*nb+nb-1]
	}
	if last == 0 {
		return nil, fmt.Errorf("%w: ack planes end in a zero byte", ErrMalformed)
	}
	planes := a.Planes[:cap(a.Planes)]
	for len(planes) < width {
		planes = append(planes, nil)
	}
	words := (nb + 7) / 8
	for l := range width {
		pl, src := slices.Grow(planes[l][:0], words)[:words], b[l*nb:(l+1)*nb]
		for w := range nb / 8 {
			pl[w] = binary.LittleEndian.Uint64(src[8*w:])
		}
		if nb%8 != 0 { // the last word's spare bytes are zero
			var x [8]byte
			copy(x[:], src[nb&^7:])
			pl[words-1] = binary.LittleEndian.Uint64(x[:])
		}
		planes[l] = pl
	}
	var top uint64
	for _, x := range planes[width-1][:words] {
		top |= x
	}
	if top == 0 {
		return nil, fmt.Errorf("%w: the top ack plane is zero", ErrMalformed)
	}
	a.Planes = planes[:width]
	return b[width*nb:], nil
}

// unpackRun expands one run of an ack vector into marks: ids from node
// on, their watermarks from the offset of the vector's at-th mark in
// packed on, eight at a time into byte lanes up to 8 bits wide
// (packMarks inverted), else a bit at a time. j bytes of packed are
// read and acc holds what is left of the last word; it returns both.
//
//go:noinline
func unpackRun(marks []PeerMark, node uint32, packed []byte, at, j int, acc uint64, base uint32, w uint) (int, uint64) {
	if w > 8 {
		nb := uint(8*j - at*int(w)) // the bits read but not used
		for k := range marks {
			for ; nb < w; nb, j = nb+8, j+1 {
				acc |= uint64(packed[j]) << (nb & 63)
			}
			marks[k] = PeerMark{Node: node + uint32(k), Watermark: base + uint32(acc)&(1<<w-1)}
			acc, nb = acc>>(w&63), nb-w
		}
		return j, acc
	}
	for k := range marks {
		if (at+k)&7 == 0 {
			acc, j = unpackWord(packed, j, w), j+int(w)
		}
		marks[k] = PeerMark{Node: node + uint32(k), Watermark: base + uint32(byte(acc))}
		acc >>= 8
	}
	return j, acc
}

// unpackWord returns the eight offsets of w ≤ 8 bits at packed[j:] in
// the byte lanes of a word. Inlined, its temporaries pushed unpackRun's
// loop counter and word out of registers, onto the stack.
//
//go:noinline
func unpackWord(packed []byte, j int, w uint) uint64 {
	var x uint64
	if j+8 <= len(packed) {
		x = binary.LittleEndian.Uint64(packed[j : j+8])
	} else {
		for i, c := range packed[j:] {
			x |= uint64(c) << (8 * uint(i) & 63)
		}
	}
	w1, w2, w4 := w&63, 2*w&63, 4*w&63 // masked: no over-wide-shift fix-ups
	m16, m8 := (1<<w2-1)*uint64(0x0000000100000001), (1<<w1-1)*uint64(0x0001000100010001)
	x = x&(1<<w4-1) | x>>w4<<32
	x = x&m16 | x>>w2&m16<<16
	return x&m8 | x>>w1&m8<<8
}

// fillRun writes the ids start, start+1, … into run: one run of a hello
// expanded. It stays out of line so that its loop sits at a fixed offset
// from an aligned function entry, inside one 64-byte line; inlined into
// UnmarshalInto, the loop moved with every edit above it, and where it
// straddled two lines it ran at half speed.
//
//go:noinline
func fillRun(run []uint32, start uint32) {
	for i := range run {
		run[i] = start + uint32(i)
	}
}

// uvarint decodes one minimal uvarint of at most 32 bits from the head
// of b and returns it with the bytes it took. n == 0 means b ended
// inside the value; n < 0 means the value is not canonical: wider than
// 32 bits, or padded with a final zero group.
func uvarint(b []byte) (v uint32, n int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint32(b[0]), 1
	}
	wide, n := binary.Uvarint(b)
	if n > 0 && (wide>>32 != 0 || n != uvarintLen(uint32(wide))) {
		return 0, -1
	}
	return uint32(wide), n
}

// varintError words uvarint's two failures.
func varintError(n int, what string) error {
	if n == 0 {
		return fmt.Errorf("%w: inside %s", ErrTruncated, what)
	}
	return fmt.Errorf("%w: %s is not a minimal 32-bit uvarint", ErrMalformed, what)
}

// noRun is readRun's prevEnd before the first run: no start equals it.
const noRun uint64 = 1 << 63

// readRun decodes one run header (start, count) from the head of b and
// returns it with the bytes it took. It rejects what the encoder never
// writes — an empty run, a run reaching past id 2³²-1, a run starting
// where the one before it ended at prevEnd (they would have been one) —
// and a count that would take the list, have entries long so far, past
// MaxAckEntries; the caller expands the run only after that.
func readRun(b []byte, prevEnd uint64, have int) (start uint32, count, n int, err error) {
	start, n = uvarint(b)
	if n <= 0 {
		return 0, 0, 0, varintError(n, "run start")
	}
	c, m := uvarint(b[n:])
	if m <= 0 {
		return 0, 0, 0, varintError(m, "run count")
	}
	switch {
	case c == 0:
		return 0, 0, 0, fmt.Errorf("%w: empty run at id %d", ErrMalformed, start)
	case uint64(c) > uint64(MaxAckEntries-have):
		return 0, 0, 0, fmt.Errorf("%w: run of %d ids after %d exceeds the %d-entry cap", ErrMalformed, c, have, MaxAckEntries)
	case uint64(start)+uint64(c) > 1<<32:
		return 0, 0, 0, fmt.Errorf("%w: run of %d ids from %d passes id 2^32-1", ErrMalformed, c, start)
	case uint64(start) == prevEnd:
		return 0, 0, 0, fmt.Errorf("%w: run at id %d continues the run before it", ErrMalformed, start)
	}
	return start, int(c), n + m, nil
}

// bitvecFromWire decodes an n-bit LSB-first vector that must occupy
// exactly the remaining bytes, with all spare bits of the last byte
// zero (the canonical encoding Marshal produces), into the caller's
// reusable vector.
func bitvecFromWire(v *gf.BitVec, b []byte, n int) error {
	need := (n + 7) / 8
	if len(b) != need {
		return fmt.Errorf("%w: %d payload bytes for %d bits (want %d)", ErrMalformed, len(b), n, need)
	}
	if n%8 != 0 && b[need-1]>>(uint(n)%8) != 0 {
		return fmt.Errorf("%w: nonzero spare bits in final byte", ErrMalformed)
	}
	v.SetFromBytes(b, n)
	return nil
}
