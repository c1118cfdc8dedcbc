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
//   - rank matches a from-scratch Gaussian elimination.
func FuzzBitMatrixInsert(f *testing.F) {
	f.Add(uint8(8), []byte{0b10110000, 0b01100000, 0b10110000, 0b00000001})
	f.Add(uint8(1), []byte{0x01, 0x00, 0xff})
	f.Add(uint8(65), []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Add(uint8(200), []byte{})
	f.Fuzz(func(t *testing.T, colsByte uint8, data []byte) {
		cols := int(colsByte)%96 + 1
		bytesPerRow := (cols + 7) / 8
		m := NewBitMatrix(cols)
		var inserted []BitVec
		for off := 0; off+bytesPerRow <= len(data) && len(inserted) < 64; off += bytesPerRow {
			v := BitVecFromBytes(data[off:off+bytesPerRow], cols)
			before := m.Rank()
			grew := m.Insert(v)
			inserted = append(inserted, v)

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
		if got, want := m.Rank(), naiveRank(inserted, cols); got != want {
			t.Fatalf("rank = %d, naive Gaussian elimination says %d", got, want)
		}
	})
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

// FuzzXorRows holds the subset-xor kernel to the per-row loop it
// replaced on a random reduced basis of any width up to 20 words, with
// pivots in every word, for any chunk and row selection.
func FuzzXorRows(f *testing.F) {
	f.Add(uint16(1856), uint8(150), int64(1), uint8(0), ^uint64(0))
	f.Add(uint16(160), uint8(32), int64(2), uint8(0), uint64(0xdeadbeef))
	f.Add(uint16(1280), uint8(200), int64(3), uint8(3), uint64(1)<<63|1)
	f.Add(uint16(64), uint8(64), int64(4), uint8(1), ^uint64(0))
	f.Add(uint16(0), uint8(9), int64(5), uint8(0), uint64(1))
	f.Fuzz(func(t *testing.T, cols16 uint16, rows uint8, seed int64, chunk uint8, mask uint64) {
		cols := int(cols16) % 1281
		rng := rand.New(rand.NewSource(seed))
		m := spreadBasis(cols, int(rows), rng)
		checkRREFInvariants(t, m)
		checkXorRows(t, m, randBV(cols, rng), int(chunk)%5, mask)
	})
}
