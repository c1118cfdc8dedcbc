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
//   - every vector reduces to zero below the pivot limit afterwards, and
//     to zero when it was inserted or the matrix has no limit,
//   - rank matches a from-scratch Gaussian elimination of the vectors'
//     first pivots columns,
//   - every decision and row equals the per-row reference's,
//   - every kernel leaves the same slab, order and leads.
//
// Rows are up to 4 224 bits (66 words: two vector panels and a masked
// tail), one row per data byte up to 64, each read from data cyclically
// so short inputs still fill wide rows. A nonzero limit makes it a
// coding matrix that pivots only in its first limit%(cols+1) columns,
// and the rows are followed by what a coding matrix is sent besides
// innovative packets: a sum of two rows (dependent), the same with its
// last bit flipped (a contradicting payload, where the limit leaves a
// payload), and — for limits up to 128 — unit rows until full rank,
// then the rows again.
func FuzzBitMatrixInsert(f *testing.F) {
	f.Add(uint16(8), uint16(0), []byte{0b10110000, 0b01100000, 0b10110000, 0b00000001})
	f.Add(uint16(1), uint16(0), []byte{0x01, 0x00, 0xff})
	f.Add(uint16(65), uint16(0), []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Add(uint16(200), uint16(0), []byte{})
	f.Add(uint16(1856), uint16(0), []byte{0x80, 0x41, 0x22, 0x14, 0x08, 0xf7, 0x3c, 0x01, 0x99})
	f.Add(uint16(4161), uint16(0), []byte{0xff, 0x00, 0x10, 0x81, 0x7e, 0x42, 0x24, 0x18, 0x5a, 0xa5, 0x0f, 0xf0, 0x33})
	f.Add(uint16(159), uint16(32), []byte{0x5a, 0x0f, 0x81, 0x7e, 0x42, 0x24, 0x18, 0xa5})
	f.Add(uint16(1855), uint16(768), []byte{0x80, 0x41, 0x22, 0x14, 0x08, 0xf7, 0x3c, 0x01, 0x99, 0x10})
	f.Add(uint16(400), uint16(65), []byte{0xff, 0xfe, 0x01, 0x33, 0xc4})
	f.Add(uint16(300), uint16(300), []byte{0x12, 0x34, 0x56})
	f.Fuzz(func(t *testing.T, cols16, limit16 uint16, data []byte) {
		cols := int(cols16)%4224 + 1
		pivots := cols
		if limit16 != 0 {
			pivots = int(limit16) % (cols + 1)
		}
		bytesPerRow := (cols + 7) / 8
		rows := make([]BitVec, min(len(data), 64))
		buf := make([]byte, bytesPerRow)
		for r := range rows {
			for j := range buf {
				buf[j] = data[(r*bytesPerRow+j)%len(data)]
			}
			rows[r] = BitVecFromBytes(buf, cols)
		}
		rows = append(rows, codingTail(rows, cols, pivots)...)
		var want *BitMatrix
		for _, vec := range kernels() {
			m := NewBitMatrix(cols)
			m.LimitPivots(pivots)
			withKernel(vec, func() { insertChecked(t, m, rows) })
			if want == nil {
				want = m
			}
			checkSameMatrix(t, m, want)
		}
	})
}

// codingTail is what FuzzBitMatrixInsert appends to rows for a matrix
// that pivots in the first pivots of cols columns.
func codingTail(rows []BitVec, cols, pivots int) []BitVec {
	if len(rows) < 2 {
		return nil
	}
	dep := rows[0].Clone()
	dep.Xor(rows[1])
	contra := dep.Clone()
	contra.Flip(cols - 1)
	tail := []BitVec{dep, contra}
	if pivots <= 128 {
		for c := range pivots {
			u := rows[c%len(rows)].Clone()
			for b := range pivots {
				u.Set(b, b == c)
			}
			tail = append(tail, u)
		}
		tail = append(tail, rows...)
	}
	return tail
}

// insertChecked inserts rows into an empty m one at a time, beside the
// per-row reference under the same pivot limit, checking the invariants
// FuzzBitMatrixInsert lists after each.
func insertChecked(t *testing.T, m *BitMatrix, rows []BitVec) {
	t.Helper()
	ref := newRefMatrix(m.Cols())
	ref.pivots = m.pivots
	for _, v := range rows {
		before := m.Rank()
		grew := m.Insert(v)
		if grew && m.Rank() != before+1 {
			t.Fatalf("Insert reported growth but rank went %d -> %d", before, m.Rank())
		}
		if !grew && m.Rank() != before {
			t.Fatalf("Insert reported no growth but rank went %d -> %d", before, m.Rank())
		}
		if grew != ref.insert(v) {
			t.Fatalf("cols=%d pivots=%d: Insert grew=%v, the per-row reference %v", m.Cols(), m.pivots, grew, !grew)
		}
		if lb := m.Reduce(v).LeadingBit(); lb >= 0 && (lb < m.pivots || grew || m.pivots == m.Cols()) {
			t.Fatalf("cols=%d pivots=%d: the span leaves bit %d of a vector it was sent (grew=%v)", m.Cols(), m.pivots, lb, grew)
		}
		checkRREFInvariants(t, m)
	}
	proj := make([]BitVec, len(rows))
	for i, v := range rows {
		proj[i] = v.Slice(0, m.pivots)
	}
	if got, want := m.Rank(), naiveRank(proj, m.pivots); got != want {
		t.Fatalf("rank = %d, naive Gaussian elimination says %d", got, want)
	}
	for i := range m.Rank() {
		if m.Lead(i) != ref.lead[i] || !m.Row(i).Equal(ref.rows[i]) {
			t.Fatalf("cols=%d pivots=%d: row %d differs from the per-row reference's", m.Cols(), m.pivots, i)
		}
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

// FuzzPext holds the portable pext to the bit-by-bit definition and, on
// a CPU that runs the vector kernels, to BMI2's PEXTQ.
func FuzzPext(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(0xdeadbeefcafef00d), uint64(0x8000000000000001))
	f.Add(uint64(0x0123456789abcdef), uint64(0xf0f0f0f00f0f0f0f))
	f.Add(^uint64(0), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, x, mask uint64) {
		want := naivePext(x, mask)
		if got := pext(x, mask); got != want {
			t.Fatalf("pext(%#x, %#x) = %#x, want %#x", x, mask, got, want)
		}
		if hasAVX512() {
			if got := pextq(x, mask); got != want {
				t.Fatalf("PEXTQ(%#x, %#x) = %#x, want %#x", x, mask, got, want)
			}
		}
	})
}

// naivePext is PEXT by its definition: the bits of x at the set bits of
// mask, lowest first, packed from bit 0.
func naivePext(x, mask uint64) uint64 {
	var out uint64
	n := 0
	for b := range 64 {
		if mask>>b&1 == 1 {
			out |= (x >> b & 1) << n
			n++
		}
	}
	return out
}
