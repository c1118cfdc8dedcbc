package rlnc

import (
	"fmt"
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/gf"
)

// GCoded is a network-coded message over an arbitrary field, used by the
// Section 6 derandomization results where the field size q must grow to
// defeat stronger adversaries. The coefficient header costs k*lg(q) bits.
type GCoded struct {
	// F is the field the combination lives in.
	F gf.Field
	// K is the coefficient dimension.
	K int
	// Vec holds K coefficients followed by the payload elements.
	Vec gf.Vec
}

// Bits returns the wire size: every coefficient and payload element
// costs lg(q) bits.
func (c GCoded) Bits() int { return len(c.Vec) * c.F.Bits() }

// GEncode builds the initial vector for token index i of k with the
// given payload elements.
func GEncode(f gf.Field, i, k int, payload gf.Vec) GCoded {
	if i < 0 || i >= k {
		panic(fmt.Sprintf("rlnc: token index %d out of range [0,%d)", i, k))
	}
	v := gf.NewVec(k + len(payload))
	v[i] = 1
	copy(v[k:], payload)
	return GCoded{F: f, K: k, Vec: v}
}

// GSpan is the general-field coding state, mirroring Span.
type GSpan struct {
	f       gf.Field
	k       int
	payload int
	mat     *gf.Matrix
}

// NewGSpan returns an empty span over f for k coefficients and
// payloadElems payload field elements.
func NewGSpan(f gf.Field, k, payloadElems int) *GSpan {
	return &GSpan{f: f, k: k, payload: payloadElems, mat: gf.NewMatrix(f, k+payloadElems)}
}

// Rank returns the dimension of the received subspace.
func (s *GSpan) Rank() int { return s.mat.Rank() }

// Add inserts a message, reporting whether the rank grew.
func (s *GSpan) Add(c GCoded) bool {
	if c.K != s.k || len(c.Vec) != s.k+s.payload {
		panic(fmt.Sprintf("rlnc: message dims (k=%d,len=%d) do not match span (k=%d,len=%d)",
			c.K, len(c.Vec), s.k, s.k+s.payload))
	}
	return s.mat.Insert(c.Vec)
}

// Combine returns a uniformly random combination of the span, or false
// if it is empty.
func (s *GSpan) Combine(rng *rand.Rand) (GCoded, bool) {
	return s.CombineWith(func(int) uint64 {
		return gf.RandomVec(s.f, 1, rng.Uint64)[0]
	})
}

// CombineWith combines the basis rows using coeff(i) as the scalar for
// row i. It is the hook the deterministic (advice-based) algorithms of
// Section 6 use: they draw their scalars from a fixed schedule instead
// of fresh randomness.
func (s *GSpan) CombineWith(coeff func(row int) uint64) (GCoded, bool) {
	r := s.mat.Rank()
	if r == 0 {
		return GCoded{}, false
	}
	v := gf.NewVec(s.k + s.payload)
	for i := 0; i < r; i++ {
		v.AddScaled(s.f, coeff(i), s.mat.Row(i))
	}
	return GCoded{F: s.f, K: s.k, Vec: v}, true
}

// Senses reports Definition 5.1 over the general field.
func (s *GSpan) Senses(mu gf.Vec) bool {
	if len(mu) != s.k {
		panic(fmt.Sprintf("rlnc: sensing vector has %d elems, want k=%d", len(mu), s.k))
	}
	for i := 0; i < s.mat.Rank(); i++ {
		if gf.Vec(s.mat.Row(i)[:s.k]).Dot(s.f, mu) != 0 {
			return true
		}
	}
	return false
}

// CanDecode reports full coefficient rank.
func (s *GSpan) CanDecode() bool { return s.mat.SpansUnitPrefix(s.k) }

// Decode recovers all k payload vectors.
func (s *GSpan) Decode() ([]gf.Vec, error) {
	if !s.CanDecode() {
		return nil, fmt.Errorf("rlnc: rank %d of %d, cannot decode", s.Rank(), s.k)
	}
	m := s.mat.Clone()
	m.RREF()
	out := make([]gf.Vec, s.k)
	for i := 0; i < s.k; i++ {
		row, ok := m.UnitRow(i, s.k)
		if !ok {
			return nil, fmt.Errorf("rlnc: internal: no unit row for index %d after RREF", i)
		}
		out[i] = gf.Vec(row[s.k:]).Clone()
	}
	return out, nil
}

// GBroadcastNode is BroadcastNode over an arbitrary field. Coefficients
// may come from node randomness or, via NewScheduledBroadcastNode, from
// a deterministic schedule.
type GBroadcastNode struct {
	span    *GSpan
	combine func(round int) (GCoded, bool)
}

var _ dynnet.Node = (*GBroadcastNode)(nil)

// NewGBroadcastNode returns a randomized general-field broadcast node.
func NewGBroadcastNode(f gf.Field, k, payloadElems int, initial []GCoded, rng *rand.Rand) *GBroadcastNode {
	n := &GBroadcastNode{span: NewGSpan(f, k, payloadElems)}
	n.combine = func(int) (GCoded, bool) { return n.span.Combine(rng) }
	for _, c := range initial {
		n.span.Add(c)
	}
	return n
}

// NewScheduledBroadcastNode returns a deterministic broadcast node whose
// combination scalars come from schedule coeff(round, row) — the
// "pseudo-random advice matrix" construction of Corollary 6.2.
func NewScheduledBroadcastNode(f gf.Field, k, payloadElems int, initial []GCoded, coeff func(round, row int) uint64) *GBroadcastNode {
	n := &GBroadcastNode{span: NewGSpan(f, k, payloadElems)}
	n.combine = func(round int) (GCoded, bool) {
		return n.span.CombineWith(func(row int) uint64 { return coeff(round, row) })
	}
	for _, c := range initial {
		n.span.Add(c)
	}
	return n
}

// Span exposes the node's coding state.
func (n *GBroadcastNode) Span() *GSpan { return n.span }

// Send broadcasts the round's combination, or nothing on an empty span.
func (n *GBroadcastNode) Send(round int) dynnet.Message {
	c, ok := n.combine(round)
	if !ok {
		return nil
	}
	return c
}

// Receive inserts every received combination.
func (n *GBroadcastNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		if c, ok := m.(GCoded); ok {
			n.span.Add(c)
		}
	}
}
