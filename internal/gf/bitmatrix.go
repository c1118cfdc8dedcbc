package gf

import (
	"fmt"
	"math/bits"
	"sort"
)

// BitMatrix maintains a set of GF(2) row vectors in reduced row echelon
// form, supporting incremental insertion. It is the decoder state for
// network coding over GF(2): each received message is Reduced against
// the current basis and inserted when it carries new information
// (increases the rank).
//
// Rows are kept ordered by their leading (lowest-index) set bit; every
// leading bit is unique, and — the RREF invariant — every pivot column
// has exactly one set bit across all rows. Insert maintains the
// invariant by back-eliminating the existing rows against each new
// pivot, so rank/decodability queries never have to clone the matrix or
// redo elimination: they are O(rank) scans of the stored rows.
//
// Storage is a single contiguous []uint64 slab of stride-word rows.
// Echelon order is an indirection (order[i] names the slab row holding
// echelon row i), so Insert never moves row data — it reduces the
// candidate in place in the next free slab row and, on success, splices
// one index. The slab grows by doubling; Reset keeps it, so a decoder
// slot reused across coding generations (the streaming layer's span
// pool) performs no steady-state allocation.
type BitMatrix struct {
	cols   int
	stride int // words per row; len(slab) is a multiple of stride
	slab   []uint64
	// order maps echelon position -> slab row index. len(order) is the
	// rank; slab row order[len(order)] onward is free space, and the
	// first free row doubles as the Insert reduction scratch.
	order []int32
	lead  []int
}

// NewBitMatrix returns an empty echelon matrix with the given column
// count. No row storage is allocated until the first Insert.
func NewBitMatrix(cols int) *BitMatrix {
	if cols < 0 {
		panic("gf: negative BitMatrix column count")
	}
	return &BitMatrix{cols: cols, stride: (cols + 63) / 64}
}

// Cols returns the number of columns.
func (m *BitMatrix) Cols() int { return m.cols }

// Rank returns the current rank (number of stored rows).
func (m *BitMatrix) Rank() int { return len(m.order) }

// rowAt returns a view of the slab row at the given slab index. The
// view aliases the slab: it is invalidated by slab growth (Insert) and
// mutated by back-elimination.
func (m *BitMatrix) rowAt(idx int32) BitVec {
	off := int(idx) * m.stride
	return BitVec{n: m.cols, w: m.slab[off : off+m.stride : off+m.stride]}
}

// Row returns the i-th stored row (in echelon order). The returned
// vector is a view of the internal slab; callers must not modify it and
// must not hold it across Insert (growth may move the slab).
func (m *BitMatrix) Row(i int) BitVec { return m.rowAt(m.order[i]) }

// Lead returns the pivot column of the i-th stored row.
func (m *BitMatrix) Lead(i int) int { return m.lead[i] }

// Reduce eliminates v against the stored rows and returns the remainder.
// The input is not modified; the remainder is freshly allocated.
func (m *BitMatrix) Reduce(v BitVec) BitVec {
	if v.Len() != m.cols {
		panic(fmt.Sprintf("gf: BitMatrix reduce of %d-bit vector against %d columns", v.Len(), m.cols))
	}
	r := v.Clone()
	m.reduceInPlace(r)
	return r
}

// reduceInPlace eliminates r against the stored rows, 64 echelon rows
// per XorRows call. The rows to xor are known before any xor happens:
// the basis is in reduced form, so a stored row is zero in every pivot
// column but its own, and xoring it into r moves none of the other bits
// the selection reads. Echelon form alone would not do — a row could
// flip r at a later pivot.
func (m *BitMatrix) reduceInPlace(r BitVec) {
	for base := 0; base < len(m.lead); base += 64 {
		var mask uint64
		for i, l := range m.lead[base:min(base+64, len(m.lead))] {
			mask |= (r.w[l>>6] >> (uint(l) & 63) & 1) << uint(i)
		}
		m.XorRows(r, base>>6, mask)
	}
}

// XorRows xors into dst the echelon rows 64·chunk+i for every set bit i
// of mask; bits that name a row at or beyond the rank are ignored. A
// random mask per chunk is a random combination of the basis, the pivot
// bits of a vector its reduction: this is the one subset-xor loop under
// Insert, Reduce and rlnc.Span.CombineInto.
//
// It expands mask into the slab offsets and pivot words of the selected
// rows, on the stack, then sweeps dst in blocks of eight words (a cache
// line) held in registers: a row-word costs one load, against two loads
// and a store when dst is rewritten once per row. Rows are sorted by
// pivot and zero below it, so the sweep starts at the first row's pivot
// word and each block visits only the prefix off[:hi] of rows whose
// pivot word it has reached; that prefix is never empty, which lets the
// row loops test at the bottom — the form in which the compiler folds
// each load into its xor and the accumulators stay in registers. dst
// must not be a stored row.
func (m *BitMatrix) XorRows(dst BitVec, chunk int, mask uint64) {
	if dst.n != m.cols {
		panic(fmt.Sprintf("gf: BitMatrix xor of rows into %d-bit vector, have %d columns", dst.n, m.cols))
	}
	base := chunk << 6
	if rem := len(m.order) - base; rem < 64 {
		mask &= 1<<uint(max(rem, 0)) - 1
	}
	if mask == 0 {
		return
	}
	var off, pw [64]int
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		i := base + bits.TrailingZeros64(mask)
		off[n], pw[n] = int(m.order[i])*m.stride, m.lead[i]>>6
		n++
	}
	slab, stride, dw := m.slab, m.stride, dst.w[:m.stride]
	w, hi := pw[0], 0
	for ; w+8 <= stride; w += 8 {
		for hi < n && pw[hi] < w+8 {
			hi++
		}
		d, rows := dw[w:w+8:w+8], slab[w:]
		a0, a1, a2, a3, a4, a5, a6, a7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		for i := 0; ; {
			o := off[i&63]
			r := rows[o : o+8 : o+8]
			a0 ^= r[0]
			a1 ^= r[1]
			a2 ^= r[2]
			a3 ^= r[3]
			a4 ^= r[4]
			a5 ^= r[5]
			a6 ^= r[6]
			a7 ^= r[7]
			if i++; i >= hi {
				break
			}
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	if w+4 <= stride {
		for hi < n && pw[hi] < w+4 {
			hi++
		}
		d, rows := dw[w:w+4:w+4], slab[w:]
		a0, a1, a2, a3 := d[0], d[1], d[2], d[3]
		for i := 0; ; {
			o := off[i&63]
			r := rows[o : o+4 : o+4]
			a0 ^= r[0]
			a1 ^= r[1]
			a2 ^= r[2]
			a3 ^= r[3]
			if i++; i >= hi {
				break
			}
		}
		d[0], d[1], d[2], d[3] = a0, a1, a2, a3
		w += 4
	}
	for ; w < stride; w++ {
		for hi < n && pw[hi] <= w {
			hi++
		}
		a, rows := dw[w], slab[w:]
		for i := 0; ; {
			a ^= rows[off[i&63]]
			if i++; i >= hi {
				break
			}
		}
		dw[w] = a
	}
}

// grow ensures the slab has room for one more row, doubling on demand.
func (m *BitMatrix) grow() {
	if m.stride == 0 {
		return
	}
	need := (len(m.order) + 1) * m.stride
	if need <= len(m.slab) {
		return
	}
	newLen := len(m.slab) * 2
	if newLen < need {
		newLen = need
	}
	fresh := make([]uint64, newLen)
	copy(fresh, m.slab)
	m.slab = fresh
}

// Insert reduces v against the basis and, if the remainder is nonzero,
// adds it as a new row, back-eliminating the older rows against the new
// pivot so the matrix stays in reduced row echelon form. It reports
// whether the rank grew. The reduction happens in place in the next
// free slab row, so a rejected (dependent) vector costs no allocation
// and an accepted one costs none either once the slab has grown to the
// working rank.
func (m *BitMatrix) Insert(v BitVec) bool {
	if v.Len() != m.cols {
		panic(fmt.Sprintf("gf: BitMatrix insert of %d-bit vector into %d columns", v.Len(), m.cols))
	}
	m.grow()
	free := int32(len(m.order))
	row := m.rowAt(free)
	row.CopyFrom(v)
	m.reduceInPlace(row)
	lb := row.LeadingBit()
	if lb < 0 {
		return false
	}
	pos := sort.SearchInts(m.lead, lb)
	// Only rows before pos can see column lb: every later row's leading
	// bit exceeds lb, so its bits at and below lb are already zero. The
	// new row is zero below lb, so the xor can start at the pivot word.
	// The column is gathered 64 rows at a time before any row is
	// rewritten: the loads are independent and overlap their cache
	// misses, where a test-and-xor per row waits out a miss behind every
	// mispredicted branch.
	lw, lbit := lb>>6, uint(lb)&63
	for base := 0; base < pos; base += 64 {
		var mask uint64
		for i, idx := range m.order[base:min(base+64, pos)] {
			mask |= (m.slab[int(idx)*m.stride+lw] >> lbit & 1) << uint(i)
		}
		for ; mask != 0; mask &= mask - 1 {
			o := int(m.order[base+bits.TrailingZeros64(mask)]) * m.stride
			xorWords(m.slab[o+lw:o+m.stride], row.w[lw:])
		}
	}
	m.order = append(m.order, 0)
	copy(m.order[pos+1:], m.order[pos:])
	m.order[pos] = free
	m.lead = append(m.lead, 0)
	copy(m.lead[pos+1:], m.lead[pos:])
	m.lead[pos] = lb
	return true
}

// Contains reports whether v lies in the row span.
func (m *BitMatrix) Contains(v BitVec) bool {
	return m.Reduce(v).IsZero()
}

// RREF is a no-op kept for API compatibility: Insert maintains reduced
// row echelon form incrementally, so the matrix is always fully
// back-eliminated. After any sequence of Inserts, if the matrix spans
// all k unit vectors on the first k coordinates, Row(i) directly reveals
// coordinate block i.
func (m *BitMatrix) RREF() {}

// RowWithLead returns the index of the row whose pivot column is exactly
// c, or -1 if no row pivots there. Rows are sorted by pivot, so this is
// a binary search.
func (m *BitMatrix) RowWithLead(c int) int {
	i := sort.SearchInts(m.lead, c)
	if i < len(m.lead) && m.lead[i] == c {
		return i
	}
	return -1
}

// UnitRow returns the row whose leading bit is exactly column c and
// which, within the first prefix columns, has no other set bit. It
// reports whether such a row exists. For a coding matrix whose first
// prefix columns are coefficients, UnitRow(c, prefix) is the decoded
// vector for token c. Because the matrix is kept in RREF, this is a
// binary search plus a word-level popcount — no elimination happens.
func (m *BitMatrix) UnitRow(c, prefix int) (BitVec, bool) {
	i := m.RowWithLead(c)
	if i < 0 {
		return BitVec{}, false
	}
	row := m.Row(i)
	want := 0
	if c < prefix {
		want = 1
	}
	if row.OnesCountPrefix(prefix) != want {
		return BitVec{}, false
	}
	return row, true
}

// SpansUnitPrefix reports whether the row span restricted to the first
// prefix columns spans all prefix unit vectors, i.e. whether a decoder
// can recover every one of the prefix coordinate blocks.
func (m *BitMatrix) SpansUnitPrefix(prefix int) bool {
	// The projection spans F_2^prefix iff there are `prefix` pivots among
	// the first `prefix` columns. Leads are sorted, so count the prefix.
	pivots := sort.SearchInts(m.lead, prefix)
	return pivots == prefix
}

// Reset clears the matrix back to rank zero while keeping the column
// count and the slab, so a decoder slot can be reused for a new coding
// generation without reallocating row storage or the pivot bookkeeping.
func (m *BitMatrix) Reset() {
	m.order = m.order[:0]
	m.lead = m.lead[:0]
}

// MemoryBytes returns the approximate heap bytes held by the matrix:
// the slab plus the order/pivot bookkeeping slices. It is the
// per-generation memory figure the streaming layer reports.
func (m *BitMatrix) MemoryBytes() int {
	return 8*cap(m.slab) + 8*cap(m.lead) + 4*cap(m.order)
}

// Clone returns a deep copy of the matrix. The clone's slab is sized to
// the clone's rank, not the original's capacity.
func (m *BitMatrix) Clone() *BitMatrix {
	c := &BitMatrix{
		cols:   m.cols,
		stride: m.stride,
		slab:   make([]uint64, len(m.order)*m.stride),
		order:  make([]int32, len(m.order)),
		lead:   make([]int, len(m.lead)),
	}
	for i, idx := range m.order {
		copy(c.slab[i*m.stride:(i+1)*m.stride], m.slab[int(idx)*m.stride:(int(idx)+1)*m.stride])
		c.order[i] = int32(i)
	}
	copy(c.lead, m.lead)
	return c
}
