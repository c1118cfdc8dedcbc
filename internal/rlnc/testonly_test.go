package rlnc

import "repro/internal/gf"

// Exported functions only this package's tests call.

// Coeff returns a copy of the coefficient prefix.
func (c Coded) Coeff() gf.BitVec { return c.Vec.Slice(0, c.K) }

// PayloadElems returns the number of payload field elements.
func (c GCoded) PayloadElems() int { return len(c.Vec) - c.K }

// DecodablePayload returns the payload of token i if it is already
// recoverable from the current span (possible before full rank: any
// basis vector whose coefficient part reduces to exactly e_i reveals
// token i). This is the early-decoding behaviour real RLNC
// implementations expose; the paper's algorithms only use full decodes.
func (s *Span) DecodablePayload(i int) (gf.BitVec, bool) {
	if i < 0 || i >= s.k {
		return gf.BitVec{}, false
	}
	row, ok := s.mat.UnitRow(i, s.k)
	if !ok {
		return gf.BitVec{}, false
	}
	return row.Slice(s.k, s.k+s.payload), true
}
