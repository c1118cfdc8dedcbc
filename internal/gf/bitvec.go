package gf

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitVec is a fixed-length vector over GF(2), packed 64 bits per word.
// It is the message/vector representation used by the q = 2 coding fast
// path: addition is word-wise XOR and a dot product is a popcount parity.
type BitVec struct {
	n int
	w []uint64
}

// NewBitVec returns the zero vector of length n bits.
func NewBitVec(n int) BitVec {
	if n < 0 {
		panic("gf: negative BitVec length")
	}
	return BitVec{n: n, w: make([]uint64, (n+63)/64)}
}

// NewBitVecs returns count zero vectors of n bits over one allocation
// of words: each vector's words are its own range of it.
func NewBitVecs(n, count int) []BitVec {
	if n < 0 {
		panic("gf: negative BitVec length")
	}
	words := (n + 63) / 64
	slab := make([]uint64, count*words)
	out := make([]BitVec, count)
	for i := range out {
		out[i] = BitVec{n: n, w: slab[i*words : (i+1)*words : (i+1)*words]}
	}
	return out
}

// SetFromBytes reshapes v to n bits and fills it from the first
// ceil(n/8) bytes of data (LSB-first within each byte), reusing v's
// word storage when its capacity allows. Bits of data beyond n are
// ignored. It is the zero-allocation decode primitive behind
// wire.UnmarshalInto.
func (v *BitVec) SetFromBytes(data []byte, n int) {
	if n < 0 {
		panic("gf: negative BitVec length")
	}
	need := (n + 7) / 8
	if len(data) < need {
		panic(fmt.Sprintf("gf: %d bytes cannot hold %d bits", len(data), n))
	}
	// Reshape without clearing: the loops below overwrite every word
	// (the tail branch assigns the whole final word), so zeroing first
	// would double the write traffic of the per-packet decode path.
	words := (n + 63) / 64
	if cap(v.w) >= words {
		v.w = v.w[:words]
	} else {
		v.w = make([]uint64, words)
	}
	v.n = n
	full := need / 8
	for i := 0; i < full; i++ {
		v.w[i] = uint64(data[8*i]) | uint64(data[8*i+1])<<8 |
			uint64(data[8*i+2])<<16 | uint64(data[8*i+3])<<24 |
			uint64(data[8*i+4])<<32 | uint64(data[8*i+5])<<40 |
			uint64(data[8*i+6])<<48 | uint64(data[8*i+7])<<56
	}
	if full < len(v.w) {
		var w uint64
		for i := 8 * full; i < need; i++ {
			w |= uint64(data[i]) << (8 * uint(i-8*full))
		}
		v.w[full] = w
	}
	v.maskTail()
}

// Resize reshapes v to n bits, all zero, reusing the word storage when
// its capacity allows. It is the in-place counterpart of NewBitVec for
// scratch vectors that live across iterations of a hot loop.
func (v *BitVec) Resize(n int) {
	if n < 0 {
		panic("gf: negative BitVec length")
	}
	words := (n + 63) / 64
	if cap(v.w) >= words {
		v.w = v.w[:words]
		v.Zero()
	} else {
		v.w = make([]uint64, words)
	}
	v.n = n
}

// Zero clears every bit in place.
func (v BitVec) Zero() {
	for i := range v.w {
		v.w[i] = 0
	}
}

// Len returns the vector length in bits.
func (v BitVec) Len() int { return v.n }

// Bit reports bit i.
func (v BitVec) Bit(i int) bool {
	v.check(i)
	return v.w[i>>6]>>(uint(i)&63)&1 == 1
}

// Set sets bit i to b.
func (v BitVec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.w[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v.w[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Word returns bits [64i, 64i+64) as one word, bit 64i lowest; bits at
// and beyond Len read as zero.
func (v BitVec) Word(i int) uint64 { return v.w[i] }

// SetWord overwrites bits [64i, 64i+64) with w, dropping the bits of w
// that fall at or beyond Len.
func (v BitVec) SetWord(i int, w uint64) {
	v.w[i] = w
	if i == len(v.w)-1 {
		v.maskTail()
	}
}

// check keeps the per-bit accessors inlinable: one unsigned compare
// covers both ends of the range, and the panic value formats its
// message only if it is ever printed.
func (v BitVec) check(i int) {
	if uint(i) >= uint(v.n) {
		panic(indexError{i, v.n})
	}
}

type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("gf: BitVec index %d out of range [0,%d)", e.i, e.n)
}

// Xor adds u into v in place (v += u over GF(2)). The lengths must match.
func (v BitVec) Xor(u BitVec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf: BitVec length mismatch %d vs %d", v.n, u.n))
	}
	xorWords(v.w, u.w)
}

// xorWords xors src into dst, eight words to a step with the bounds
// checked once per step. len(src) must be at least len(dst).
func xorWords(dst, src []uint64) {
	src = src[:len(dst)]
	for len(dst) >= 8 {
		d, s := (*[8]uint64)(dst), (*[8]uint64)(src)
		d[0], d[1], d[2], d[3] = d[0]^s[0], d[1]^s[1], d[2]^s[2], d[3]^s[3]
		d[4], d[5], d[6], d[7] = d[4]^s[4], d[5]^s[5], d[6]^s[6], d[7]^s[7]
		dst, src = dst[8:], src[8:]
	}
	for i, w := range src {
		dst[i] ^= w
	}
}

// DotPrefix returns the GF(2) inner product of v's first u.Len() bits
// with u, without materializing the prefix as a slice. It relies on the
// package invariant that u's tail bits beyond u.Len() are zero.
func (v BitVec) DotPrefix(u BitVec) uint64 {
	if u.n > v.n {
		panic(fmt.Sprintf("gf: BitVec prefix dot of %d bits against %d", u.n, v.n))
	}
	var acc uint64
	for i, uw := range u.w {
		acc ^= v.w[i] & uw
	}
	return uint64(bits.OnesCount64(acc)) & 1
}

// OnesCountPrefix returns the number of set bits among the first prefix
// bits of v.
func (v BitVec) OnesCountPrefix(prefix int) int {
	if prefix < 0 || prefix > v.n {
		panic(fmt.Sprintf("gf: BitVec prefix %d out of range [0,%d]", prefix, v.n))
	}
	c := 0
	full := prefix >> 6
	for i := 0; i < full; i++ {
		c += bits.OnesCount64(v.w[i])
	}
	if prefix&63 != 0 {
		c += bits.OnesCount64(v.w[full] & (1<<(uint(prefix)&63) - 1))
	}
	return c
}

// IsZero reports whether every bit is zero.
func (v BitVec) IsZero() bool {
	for _, w := range v.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v BitVec) Clone() BitVec {
	c := BitVec{n: v.n, w: make([]uint64, len(v.w))}
	copy(c.w, v.w)
	return c
}

// Slice copies bits [lo, hi) of v into a fresh BitVec of length hi-lo.
func (v BitVec) Slice(lo, hi int) BitVec {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("gf: BitVec slice [%d,%d) out of range [0,%d)", lo, hi, v.n))
	}
	out := NewBitVec(hi - lo)
	v.SliceInto(out, lo)
	return out
}

// SliceInto overwrites dst with bits [lo, lo+dst.Len()) of v. It works
// a word at a time: each output word is assembled from at most two
// input words via shifts.
func (v BitVec) SliceInto(dst BitVec, lo int) {
	v.checkSlice(lo, dst.n)
	for i := range dst.w {
		dst.w[i] = v.wordAt(lo + 64*i)
	}
	dst.maskTail()
}

// SliceEqual reports whether bits [lo, lo+u.Len()) of v equal u, as
// v.Slice(lo, lo+u.Len()).Equal(u) does, without the copy.
func (v BitVec) SliceEqual(lo int, u BitVec) bool {
	v.checkSlice(lo, u.n)
	last := len(u.w) - 1
	for i, uw := range u.w {
		w := v.wordAt(lo + 64*i)
		if i == last && u.n&63 != 0 {
			w &= 1<<(uint(u.n)&63) - 1
		}
		if w != uw {
			return false
		}
	}
	return true
}

// checkSlice panics unless bits [lo, lo+n) lie within v.
func (v BitVec) checkSlice(lo, n int) {
	if lo < 0 || n < 0 || lo+n > v.n {
		panic(fmt.Sprintf("gf: BitVec slice [%d,%d) out of range [0,%d)", lo, lo+n, v.n))
	}
}

// wordAt returns the 64 bits of v from bit b < Len on, bit b lowest;
// bits past the last word read as zero.
func (v BitVec) wordAt(b int) uint64 {
	i, shift := b>>6, uint(b)&63
	w := v.w[i] >> shift
	if shift != 0 && i+1 < len(v.w) {
		w |= v.w[i+1] << (64 - shift)
	}
	return w
}

// From returns bits [lo, Len) of v, lo a multiple of 64, as a vector
// sharing v's words: writes through either show in both.
func (v BitVec) From(lo int) BitVec {
	if lo&63 != 0 || lo < 0 || lo > v.n {
		panic(fmt.Sprintf("gf: BitVec view from bit %d of %d", lo, v.n))
	}
	return BitVec{n: v.n - lo, w: v.w[lo>>6:]}
}

// CopyInto copies v into bits [off, off+v.Len()) of dst, leaving the
// rest of dst as it was. It works a word at a time: each source word
// lands in at most two destination words via shifts, as in Slice.
func (v BitVec) CopyInto(dst BitVec, off int) {
	if off < 0 || off+v.n > dst.n {
		panic(fmt.Sprintf("gf: BitVec copy of %d bits at offset %d into %d bits", v.n, off, dst.n))
	}
	lo, shift := off>>6, uint(off)&63
	for i, w := range v.w {
		mask := ^uint64(0) >> uint(max(0, 64*(i+1)-v.n))
		dst.w[lo+i] = dst.w[lo+i]&^(mask<<shift) | w&mask<<shift
		// A shift count of 64 yields zero, so an aligned copy, or a
		// last word that fits, spills nothing.
		if spill := mask >> (64 - shift); spill != 0 {
			dst.w[lo+i+1] = dst.w[lo+i+1]&^spill | w&mask>>(64-shift)
		}
	}
}

// Equal reports whether v and u have identical length and bits.
func (v BitVec) Equal(u BitVec) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range v.w {
		if w != u.w[i] {
			return false
		}
	}
	return true
}

// AppendBytes appends the vector packed LSB-first (ceil(n/8) bytes) to
// buf and returns the extended slice. It works a word at a time and
// performs no allocation when buf has capacity — the marshalling
// primitive behind wire.Packet.AppendTo.
func (v BitVec) AppendBytes(buf []byte) []byte {
	total := (v.n + 7) / 8
	full := total / 8
	for i := 0; i < full; i++ {
		w := v.w[i]
		buf = append(buf, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	if full*8 < total {
		w := v.w[full]
		for b := 8 * full; b < total; b++ {
			buf = append(buf, byte(w>>(8*uint(b-8*full))))
		}
	}
	return buf
}

// String renders the vector as a bit string, lowest index first.
func (v BitVec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// RandomBitVec returns a uniformly random vector of length n using the
// given random word source.
func RandomBitVec(n int, rnd func() uint64) BitVec {
	v := NewBitVec(n)
	for i := range v.w {
		v.w[i] = rnd()
	}
	v.maskTail()
	return v
}

// maskTail clears the unused high bits of the last word so that Equal,
// IsZero and DotPrefix can operate word-wise.
func (v BitVec) maskTail() {
	if v.n%64 != 0 && len(v.w) > 0 {
		v.w[len(v.w)-1] &= (1 << (uint(v.n) % 64)) - 1
	}
}
