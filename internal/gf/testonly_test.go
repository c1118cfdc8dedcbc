package gf

import "math/bits"

// Exported functions only this package's tests call.

// Cols returns the number of columns.
func (m *BitMatrix) Cols() int { return m.cols }

// Lead returns the pivot column of the i-th stored row.
func (m *BitMatrix) Lead(i int) int { return m.lead[i] }

// OnesCount returns the number of set bits.
func (v BitVec) OnesCount() int {
	c := 0
	for _, w := range v.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// BitVecFromBytes packs the first n bits of data (LSB-first within each
// byte) into a BitVec of length n.
func BitVecFromBytes(data []byte, n int) BitVec {
	var v BitVec
	v.SetFromBytes(data, n)
	return v
}

// Lead returns the pivot column of the i-th stored row.
func (m *Matrix) Lead(i int) int { return m.lead[i] }
