package gf

import (
	"fmt"
	"math/bits"
	"slices"
)

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

// Reduce eliminates v against the stored rows and returns the remainder.
// The input is not modified; the remainder is freshly allocated.
func (m *BitMatrix) Reduce(v BitVec) BitVec {
	if v.Len() != m.cols {
		panic(fmt.Sprintf("gf: BitMatrix reduce of %d-bit vector against %d columns", v.Len(), m.cols))
	}
	r := v.Clone()
	m.reduceWords(r.w, v.w, 0)
	return r
}

// Clone returns a deep copy of the matrix. The clone's slab is sized to
// the clone's rank, not the original's capacity; it keeps the expected
// row count.
func (m *BitMatrix) Clone() *BitMatrix {
	c := &BitMatrix{
		cols:   m.cols,
		stride: m.stride,
		slab:   make([]uint64, len(m.order)*m.stride),
		order:  make([]int32, len(m.order)),
		lead:   make([]int, len(m.lead)),
		expect: m.expect,
		pivots: m.pivots,
		pfix:   m.pfix,
		pbig:   slices.Clone(m.pbig),
	}
	for i, idx := range m.order {
		copy(c.slab[i*m.stride:(i+1)*m.stride], m.slab[int(idx)*m.stride:(int(idx)+1)*m.stride])
		c.order[i] = int32(i)
	}
	copy(c.lead, m.lead)
	return c
}
