// Package rlnc implements the paper's core contribution: random linear
// network coding for information dissemination in dynamic networks
// (Section 5). Tokens are interpreted as vectors over a finite field;
// instead of forwarding tokens, nodes broadcast random linear
// combinations of every vector they have received, prefixed by the
// combination's coefficient vector. A node that has gathered a
// full-rank set of combinations recovers all tokens by Gaussian
// elimination.
//
// The package provides the GF(2) fast path (coefficients are single
// bits, combining is XOR) used by almost all of the paper's algorithms,
// a general-field variant used by the derandomization experiments of
// Section 6, and the indexed-broadcast node of Lemma 5.3.
package rlnc

import (
	"fmt"
	"math/rand"

	"repro/internal/gf"
)

// Coded is a network-coded message over GF(2): the concatenation of a
// k-bit coefficient vector and a payload. It is also the vector
// representation stored by spans.
type Coded struct {
	// K is the coefficient dimension (number of tokens coded together).
	K int
	// Vec is the full (K + payload)-bit vector; bits [0,K) are the
	// coefficients, the rest is the coded payload.
	Vec gf.BitVec
}

// Bits returns the wire size: one bit per coefficient plus the payload.
func (c Coded) Bits() int { return c.Vec.Len() }

// PayloadBits returns the payload length.
func (c Coded) PayloadBits() int { return c.Vec.Len() - c.K }

// Payload returns a copy of the payload suffix.
func (c Coded) Payload() gf.BitVec { return c.Vec.Slice(c.K, c.Vec.Len()) }

// Encode builds the initial coded vector for token index i of k: the
// i-th unit coefficient vector concatenated with the payload
// ("we concatenate the ith basis vector e_i to t_i").
func Encode(i, k int, payload gf.BitVec) Coded {
	if i < 0 || i >= k {
		panic(fmt.Sprintf("rlnc: token index %d out of range [0,%d)", i, k))
	}
	v := gf.NewBitVec(k + payload.Len())
	v.Set(i, true)
	payload.CopyInto(v, k)
	return Coded{K: k, Vec: v}
}

// Span is a node's coding state over GF(2): the row space of every coded
// message received so far, kept in echelon form. The paper's node state
// is exactly this subspace ("the message only depends on ... the subspace
// spanned by the received vectors").
type Span struct {
	k       int
	payload int
	mat     *gf.BitMatrix
}

// NewSpan returns an empty span for k coefficients and payloadBits of
// payload. Its basis expects rank k, which sizes its storage, and its
// rows pivot only in the k coefficient columns (see Add).
func NewSpan(k, payloadBits int) *Span {
	mat := gf.NewBitMatrixExpecting(k+payloadBits, k)
	mat.LimitPivots(k)
	return &Span{k: k, payload: payloadBits, mat: mat}
}

// K returns the coefficient dimension.
func (s *Span) K() int { return s.k }

// PayloadBits returns the payload length.
func (s *Span) PayloadBits() int { return s.payload }

// Rank returns the dimension of the received subspace.
func (s *Span) Rank() int { return s.mat.Rank() }

// Add inserts a coded message, reporting whether it increased the rank
// (carried new information). A message whose coefficients lie in the
// span but whose payload differs from the span's for them is refused
// like a dependent one: it contradicts what the span holds, and
// inserting it would corrupt every decoded payload it touches.
func (s *Span) Add(c Coded) bool {
	if c.K != s.k || c.Vec.Len() != s.k+s.payload {
		panic(fmt.Sprintf("rlnc: message dims (k=%d,len=%d) do not match span (k=%d,len=%d)",
			c.K, c.Vec.Len(), s.k, s.k+s.payload))
	}
	return s.mat.Insert(c.Vec)
}

// CombineInto draws a uniformly random linear combination of the span
// (equivalently, of all received vectors — they generate the same
// subspace, and the sensing lemma only depends on the subspace) into
// the caller-owned dst, reusing dst.Vec's storage when its capacity
// allows. It returns false, leaving dst untouched, if the span is
// empty, in which case the node stays silent. Coefficient coins are
// drawn 64 at a time, one rng word per 64 basis rows in echelon order,
// and each word goes to gf.BitMatrix.XorRows as the row selection, so
// the steady-state cost is pure word-level XOR with zero allocation.
// The coin sequence is identical to Combine's: given equal rng states
// the two produce bit-identical combinations.
func (s *Span) CombineInto(dst *Coded, rng *rand.Rand) bool {
	r := s.mat.Rank()
	if r == 0 {
		return false
	}
	dst.K = s.k
	dst.Vec.Resize(s.k + s.payload)
	for chunk := 0; chunk<<6 < r; chunk++ {
		s.mat.XorRows(dst.Vec, chunk, rng.Uint64())
	}
	return true
}

// Combine is the allocating wrapper around CombineInto: it returns a
// fresh combination the caller owns.
func (s *Span) Combine(rng *rand.Rand) (Coded, bool) {
	var c Coded
	if !s.CombineInto(&c, rng) {
		return Coded{}, false
	}
	return c, true
}

// RandomCombinationInto draws a uniformly random *nonzero* element of
// the span into the caller-owned dst. It is the recoding primitive of
// asynchronous gossip: a relay re-randomizes its whole received
// subspace into one fresh packet instead of forwarding any particular
// message. CombineInto already draws uniformly from the span, but 1 in
// 2^rank of its draws is the zero vector — a wasted packet on a real
// wire — so RandomCombinationInto rejection-samples the zero draw,
// which makes the output uniform over the 2^rank - 1 nonzero span
// elements (expected < 2 draws even at rank 1). It returns false,
// leaving dst untouched, if the span is empty.
func (s *Span) RandomCombinationInto(dst *Coded, rng *rand.Rand) bool {
	if !s.CombineInto(dst, rng) {
		return false
	}
	for dst.Vec.IsZero() {
		s.CombineInto(dst, rng)
	}
	return true
}

// RandomCombination is the allocating wrapper around
// RandomCombinationInto: it returns a fresh nonzero combination the
// caller owns.
func (s *Span) RandomCombination(rng *rand.Rand) (Coded, bool) {
	var c Coded
	if !s.RandomCombinationInto(&c, rng) {
		return Coded{}, false
	}
	return c, true
}

// RowInto writes basis row i (0 ≤ i < Rank, echelon order) into the
// caller-owned dst, the way CombineInto writes a combination: the Rank
// rows together are the whole of what the span holds, which is what a
// node handing its state over sends.
func (s *Span) RowInto(dst *Coded, i int) {
	dst.K = s.k
	dst.Vec.Resize(s.k + s.payload)
	s.mat.XorRows(dst.Vec, i>>6, 1<<(i&63))
}

// Senses reports Definition 5.1: whether the node has received a vector
// whose coefficient part is not orthogonal to mu. Because sensing only
// depends on the received subspace, it is evaluated on the basis.
func (s *Span) Senses(mu gf.BitVec) bool {
	if mu.Len() != s.k {
		panic(fmt.Sprintf("rlnc: sensing vector has %d bits, want k=%d", mu.Len(), s.k))
	}
	for i := 0; i < s.mat.Rank(); i++ {
		if s.mat.Row(i).DotPrefix(mu) == 1 {
			return true
		}
	}
	return false
}

// CanDecode reports whether all k tokens are recoverable, i.e. the
// coefficient projection of the span has full rank k.
func (s *Span) CanDecode() bool { return s.mat.SpansUnitPrefix(s.k) }

// Decode recovers all k payloads. It fails if the span does not yet
// have full coefficient rank. Because the basis is maintained in
// reduced row echelon form, decoding is a straight read of the stored
// rows — no clone, no elimination. The payloads share one allocation
// (gf.NewBitVecs).
func (s *Span) Decode() ([]gf.BitVec, error) {
	if !s.CanDecode() {
		return nil, fmt.Errorf("rlnc: rank %d of %d, cannot decode", s.Rank(), s.k)
	}
	out := gf.NewBitVecs(s.payload, s.k)
	for i := range out {
		row, ok := s.mat.UnitRow(i, s.k)
		if !ok {
			return nil, fmt.Errorf("rlnc: internal: no unit row for index %d in RREF basis", i)
		}
		row.SliceInto(out[i], s.k)
	}
	return out, nil
}

// PayloadEqual reports whether token i decodes to payload v: the span
// holds token i's unit row and its payload bits equal v. It reads the
// row in place and allocates nothing.
func (s *Span) PayloadEqual(i int, v gf.BitVec) bool {
	row, ok := s.mat.UnitRow(i, s.k)
	return ok && v.Len() == s.payload && row.SliceEqual(s.k, v)
}

// DecodableCount returns how many token indices are currently
// recoverable. It is an O(rank) word-level scan of the maintained RREF
// basis with zero allocation, cheap enough to call every round.
func (s *Span) DecodableCount() int {
	count := 0
	for i := 0; i < s.mat.Rank(); i++ {
		if s.mat.Row(i).OnesCountPrefix(s.k) == 1 {
			count++
		}
	}
	return count
}

// Clone returns an independent copy of the span.
func (s *Span) Clone() *Span {
	return &Span{k: s.k, payload: s.payload, mat: s.mat.Clone()}
}

// Reset empties the span for reuse with a fresh coding generation of
// the same dimensions, keeping the basis bookkeeping allocated. It is
// the lifecycle primitive behind the streaming layer's span pool: a
// retired generation's span is Reset and handed to the next generation
// instead of being reallocated.
func (s *Span) Reset() { s.mat.Reset() }

// MemoryBytes returns the approximate heap bytes held by the span's
// basis — the quantity a windowed streaming node must bound by retiring
// decoded generations.
func (s *Span) MemoryBytes() int { return s.mat.MemoryBytes() }
