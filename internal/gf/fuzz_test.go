package gf

import (
	"math/rand"
	"testing"
)

// FuzzBitMatrixInsert feeds arbitrary row batches into a BitMatrix and
// asserts the echelon invariants the decoder depends on:
//
//   - leading bits are unique and strictly increasing,
//   - the matrix stays in reduced row echelon form (each pivot column
//     has exactly one set bit across all rows),
//   - rank never decreases and grows exactly when Insert reports it,
//   - every inserted vector is contained in the span afterwards,
//   - rank matches a from-scratch Gaussian elimination,
//   - every kernel leaves the same slab, order and leads.
//
// Rows are up to 4 224 bits (66 words: two vector panels and a masked
// tail), one row per data byte up to 64, each read from data cyclically
// so short inputs still fill wide rows.
func FuzzBitMatrixInsert(f *testing.F) {
	f.Add(uint16(8), []byte{0b10110000, 0b01100000, 0b10110000, 0b00000001})
	f.Add(uint16(1), []byte{0x01, 0x00, 0xff})
	f.Add(uint16(65), []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Add(uint16(200), []byte{})
	f.Add(uint16(1856), []byte{0x80, 0x41, 0x22, 0x14, 0x08, 0xf7, 0x3c, 0x01, 0x99})
	f.Add(uint16(4161), []byte{0xff, 0x00, 0x10, 0x81, 0x7e, 0x42, 0x24, 0x18, 0x5a, 0xa5, 0x0f, 0xf0, 0x33})
	f.Fuzz(func(t *testing.T, cols16 uint16, data []byte) {
		cols := int(cols16)%4224 + 1
		bytesPerRow := (cols + 7) / 8
		rows := make([]BitVec, min(len(data), 64))
		buf := make([]byte, bytesPerRow)
		for r := range rows {
			for j := range buf {
				buf[j] = data[(r*bytesPerRow+j)%len(data)]
			}
			rows[r] = BitVecFromBytes(buf, cols)
		}
		var want *BitMatrix
		for _, vec := range kernels() {
			m := NewBitMatrix(cols)
			withKernel(vec, func() { insertChecked(t, m, rows) })
			if want == nil {
				want = m
			}
			checkSameMatrix(t, m, want)
		}
	})
}

// insertChecked inserts rows into m one at a time, checking the
// invariants FuzzBitMatrixInsert lists after each.
func insertChecked(t *testing.T, m *BitMatrix, rows []BitVec) {
	t.Helper()
	for _, v := range rows {
		before := m.Rank()
		grew := m.Insert(v)
		if grew && m.Rank() != before+1 {
			t.Fatalf("Insert reported growth but rank went %d -> %d", before, m.Rank())
		}
		if !grew && m.Rank() != before {
			t.Fatalf("Insert reported no growth but rank went %d -> %d", before, m.Rank())
		}
		if !m.Contains(v) {
			t.Fatalf("span does not contain inserted vector %v", v)
		}
		checkRREFInvariants(t, m)
	}
	if got, want := m.Rank(), naiveRank(rows, m.Cols()); got != want {
		t.Fatalf("rank = %d, naive Gaussian elimination says %d", got, want)
	}
}

// checkRREFInvariants asserts unique sorted leads and the reduced-form
// property: a pivot column is zero in every row except its own.
func checkRREFInvariants(t *testing.T, m *BitMatrix) {
	t.Helper()
	prev := -1
	for i := 0; i < m.Rank(); i++ {
		l := m.Lead(i)
		if l <= prev {
			t.Fatalf("leads not strictly increasing: %d after %d", l, prev)
		}
		prev = l
		if got := m.Row(i).LeadingBit(); got != l {
			t.Fatalf("row %d: stored lead %d != leading bit %d", i, l, got)
		}
		for j := 0; j < m.Rank(); j++ {
			if j != i && m.Row(j).Bit(l) {
				t.Fatalf("not in RREF: row %d has a set bit in pivot column %d of row %d", j, l, i)
			}
		}
	}
}

// FuzzXorRows holds the subset-xor kernels to the per-row loop they
// replaced on a random reduced basis of any width up to 4 288 bits (67
// words: two vector panels and a masked tail), with pivots in every
// word, for any chunk and row selection. The basis is built once per
// kernel, and the kernels must build the same one.
func FuzzXorRows(f *testing.F) {
	f.Add(uint16(1856), uint8(150), int64(1), uint8(0), ^uint64(0))
	f.Add(uint16(160), uint8(32), int64(2), uint8(0), uint64(0xdeadbeef))
	f.Add(uint16(1280), uint8(200), int64(3), uint8(3), uint64(1)<<63|1)
	f.Add(uint16(64), uint8(64), int64(4), uint8(1), ^uint64(0))
	f.Add(uint16(0), uint8(9), int64(5), uint8(0), uint64(1))
	f.Add(uint16(4160), uint8(130), int64(6), uint8(2), ^uint64(0))
	f.Add(uint16(4225), uint8(255), int64(7), uint8(1), uint64(0xf0f0f0f00f0f0f0f))
	f.Fuzz(func(t *testing.T, cols16 uint16, rows uint8, seed int64, chunk uint8, mask uint64) {
		cols := int(cols16) % 4289
		var m *BitMatrix
		var dst BitVec
		for _, vec := range kernels() {
			rng := rand.New(rand.NewSource(seed))
			var b *BitMatrix
			withKernel(vec, func() { b = spreadBasis(cols, int(rows), rng) })
			if m == nil {
				m, dst = b, randBV(cols, rng)
			}
			checkSameMatrix(t, b, m)
		}
		checkRREFInvariants(t, m)
		checkXorRows(t, m, dst, int(chunk)%5, mask)
	})
}
