package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitMatrixInsertRank(t *testing.T) {
	m := NewBitMatrix(4)
	rows := []string{"1100", "0110", "1010", "0001"}
	wantGrow := []bool{true, true, false, true}
	for i, s := range rows {
		if got := m.Insert(bvFromString(t, s)); got != wantGrow[i] {
			t.Errorf("insert %s: grew=%v, want %v", s, got, wantGrow[i])
		}
	}
	if m.Rank() != 3 {
		t.Errorf("rank = %d, want 3", m.Rank())
	}
}

func TestBitMatrixContains(t *testing.T) {
	m := NewBitMatrix(5)
	m.Insert(bvFromString(t, "11000"))
	m.Insert(bvFromString(t, "00110"))
	tests := []struct {
		v    string
		want bool
	}{
		{"11000", true},
		{"00110", true},
		{"11110", true},
		{"00000", true},
		{"10000", false},
		{"00001", false},
	}
	for _, tt := range tests {
		if got := m.Contains(bvFromString(t, tt.v)); got != tt.want {
			t.Errorf("Contains(%s) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

// TestBitMatrixRankMatchesNaive compares the incremental rank against a
// from-scratch Gaussian elimination on random instances.
func TestBitMatrixRankMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(40)
		nrows := rng.Intn(50)
		raw := make([]BitVec, nrows)
		m := NewBitMatrix(cols)
		for i := range raw {
			raw[i] = randBV(cols, rng)
			m.Insert(raw[i])
		}
		return m.Rank() == naiveRank(raw, cols)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func naiveRank(rows []BitVec, cols int) int {
	work := make([]BitVec, len(rows))
	for i, r := range rows {
		work[i] = r.Clone()
	}
	rank := 0
	for c := 0; c < cols; c++ {
		pivot := -1
		for i := rank; i < len(work); i++ {
			if work[i].Bit(c) {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work[rank], work[pivot] = work[pivot], work[rank]
		for i := 0; i < len(work); i++ {
			if i != rank && work[i].Bit(c) {
				work[i].Xor(work[rank])
			}
		}
		rank++
	}
	return rank
}

// TestBitMatrixEchelonInvariant checks that stored rows always have
// strictly increasing unique leading bits.
func TestBitMatrixEchelonInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		cols := 1 + rng.Intn(60)
		m := NewBitMatrix(cols)
		for i := 0; i < 2*cols; i++ {
			m.Insert(randBV(cols, rng))
		}
		prev := -1
		for i := 0; i < m.Rank(); i++ {
			l := m.Lead(i)
			if l <= prev {
				t.Fatalf("leads not strictly increasing: %d after %d", l, prev)
			}
			if m.Row(i).LeadingBit() != l {
				t.Fatalf("stored lead %d != row leading bit %d", l, m.Row(i).LeadingBit())
			}
			prev = l
		}
	}
}

// TestBitMatrixDecode exercises the full coding round trip: encode k
// payloads with unit-prefix vectors, mix them randomly, decode via RREF.
func TestBitMatrixDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const k, d = 8, 16
	payloads := make([]BitVec, k)
	src := make([]BitVec, k)
	for i := range src {
		payloads[i] = randBV(d, rng)
		v := NewBitVec(k + d)
		v.Set(i, true)
		payloads[i].CopyInto(v, k)
		src[i] = v
	}
	// Feed random combinations until full rank.
	m := NewBitMatrix(k + d)
	for m.Rank() < k {
		mix := NewBitVec(k + d)
		for i := range src {
			if rng.Intn(2) == 1 {
				mix.Xor(src[i])
			}
		}
		m.Insert(mix)
	}
	m.RREF()
	if !m.SpansUnitPrefix(k) {
		t.Fatal("full-rank matrix does not span unit prefix")
	}
	for i := 0; i < k; i++ {
		row, ok := m.UnitRow(i, k)
		if !ok {
			t.Fatalf("no unit row for token %d", i)
		}
		got := row.Slice(k, k+d)
		if !got.Equal(payloads[i]) {
			t.Fatalf("token %d decoded wrong payload", i)
		}
	}
}

func TestBitMatrixSpansUnitPrefixPartial(t *testing.T) {
	m := NewBitMatrix(6) // prefix 3 + payload 3
	m.Insert(bvFromString(t, "100101"))
	m.Insert(bvFromString(t, "010011"))
	if m.SpansUnitPrefix(3) {
		t.Error("rank-2 prefix reported as spanning 3 dims")
	}
	m.Insert(bvFromString(t, "111111"))
	if !m.SpansUnitPrefix(3) {
		t.Error("full prefix rank not detected")
	}
}

func TestBitMatrixClone(t *testing.T) {
	m := NewBitMatrix(4)
	m.Insert(bvFromString(t, "1010"))
	c := m.Clone()
	c.Insert(bvFromString(t, "0101"))
	if m.Rank() != 1 || c.Rank() != 2 {
		t.Errorf("clone not independent: ranks %d, %d", m.Rank(), c.Rank())
	}
}

func TestBitMatrixReduceDoesNotMutate(t *testing.T) {
	m := NewBitMatrix(4)
	m.Insert(bvFromString(t, "1100"))
	v := bvFromString(t, "1110")
	_ = m.Reduce(v)
	if !v.Equal(bvFromString(t, "1110")) {
		t.Error("Reduce mutated its input")
	}
}

// TestBitMatrixResetReuse pins the lifecycle primitive the streaming
// layer's span pool relies on: Reset returns the matrix to rank zero
// and a reset matrix is indistinguishable from a fresh one.
func TestBitMatrixResetReuse(t *testing.T) {
	m := NewBitMatrix(4)
	for _, s := range []string{"1100", "0110", "0001"} {
		m.Insert(bvFromString(t, s))
	}
	if m.Rank() != 3 {
		t.Fatalf("rank = %d, want 3", m.Rank())
	}
	if m.MemoryBytes() <= 0 {
		t.Errorf("MemoryBytes = %d for a rank-3 matrix", m.MemoryBytes())
	}

	m.Reset()
	if m.Rank() != 0 || m.Cols() != 4 {
		t.Fatalf("after Reset: rank %d cols %d, want 0 and 4", m.Rank(), m.Cols())
	}
	if v := bvFromString(t, "1100"); m.Contains(v) {
		t.Error("reset matrix still contains an old row")
	}

	// A reset matrix must accept a fresh basis exactly like a new one.
	fresh := NewBitMatrix(4)
	for _, s := range []string{"1010", "0101", "1111", "0011"} {
		if got, want := m.Insert(bvFromString(t, s)), fresh.Insert(bvFromString(t, s)); got != want {
			t.Errorf("insert %s after reset: grew=%v, fresh matrix says %v", s, got, want)
		}
	}
	if m.Rank() != fresh.Rank() {
		t.Errorf("rank %d after reuse, fresh matrix has %d", m.Rank(), fresh.Rank())
	}
	for i := 0; i < m.Rank(); i++ {
		if !m.Row(i).Equal(fresh.Row(i)) || m.Lead(i) != fresh.Lead(i) {
			t.Errorf("row %d differs between reused and fresh matrix", i)
		}
	}
}

// refMatrix is the pre-slab reference implementation: one heap
// allocation per echelon row, identical insert/back-eliminate logic.
// The slab-backed BitMatrix must agree with it on every observable.
type refMatrix struct {
	cols int
	rows []BitVec
	lead []int
}

func newRefMatrix(cols int) *refMatrix { return &refMatrix{cols: cols} }

// naiveXor is the oracle's own addition, one whole row a word at a
// time, sharing no code with xorWords or the XorRows kernel.
func naiveXor(dst, src BitVec) {
	for i := range dst.w {
		dst.w[i] ^= src.w[i]
	}
}

func (m *refMatrix) insert(v BitVec) bool {
	r := v.Clone()
	for i, row := range m.rows {
		if r.Bit(m.lead[i]) {
			naiveXor(r, row)
		}
	}
	lb := r.LeadingBit()
	if lb < 0 {
		return false
	}
	pos := 0
	for pos < len(m.lead) && m.lead[pos] < lb {
		pos++
	}
	for j := 0; j < pos; j++ {
		if m.rows[j].Bit(lb) {
			naiveXor(m.rows[j], r)
		}
	}
	m.rows = append(m.rows, BitVec{})
	copy(m.rows[pos+1:], m.rows[pos:])
	m.rows[pos] = r
	m.lead = append(m.lead, 0)
	copy(m.lead[pos+1:], m.lead[pos:])
	m.lead[pos] = lb
	return true
}

// TestBitMatrixSlabMatchesPerRow drives the slab-backed matrix and the
// per-row reference through identical random insert sequences and
// requires identical grow decisions, leads and row contents (identical
// RREF) at every step.
func TestBitMatrixSlabMatchesPerRow(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(200)
		m := NewBitMatrix(cols)
		ref := newRefMatrix(cols)
		for i := 0; i < 3*cols/2; i++ {
			v := randBV(cols, rng)
			if m.Insert(v) != ref.insert(v) {
				t.Logf("seed %d: grow decision diverged at insert %d", seed, i)
				return false
			}
		}
		if m.Rank() != len(ref.rows) {
			return false
		}
		for i := 0; i < m.Rank(); i++ {
			if m.Lead(i) != ref.lead[i] || !m.Row(i).Equal(ref.rows[i]) {
				t.Logf("seed %d: row %d diverged", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBitMatrixSlabDoublingBoundary inserts unit vectors one at a time
// and checks ranks, leads and previously inserted rows exactly at and
// around every slab-doubling boundary (rank 1, 2, 4, 8, ...), where a
// growth bug (stale views, bad copy) would corrupt existing rows.
func TestBitMatrixSlabDoublingBoundary(t *testing.T) {
	const cols = 130 // three words per row, not word-aligned
	m := NewBitMatrix(cols)
	for i := 0; i < cols; i++ {
		v := NewBitVec(cols)
		v.Set(i, true)
		if !m.Insert(v) {
			t.Fatalf("unit vector %d rejected", i)
		}
		if m.Rank() != i+1 {
			t.Fatalf("rank %d after %d inserts", m.Rank(), i+1)
		}
		// Verify every row inserted so far survived the growth.
		for j := 0; j <= i; j++ {
			row := m.Row(j)
			if row.LeadingBit() != j || row.OnesCount() != 1 {
				t.Fatalf("after insert %d: row %d = %s", i, j, row.String())
			}
		}
	}
}

// TestBitMatrixResetReuseAfterGrowth grows a matrix through several
// slab doublings, Resets it, and refills it with a different basis; the
// refill must not observe any stale state and must not grow the slab.
func TestBitMatrixResetReuseAfterGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const cols = 257
	m := NewBitMatrix(cols)
	for m.Rank() < cols {
		m.Insert(randBV(cols, rng))
	}
	memAtFull := m.MemoryBytes()
	for round := 0; round < 3; round++ {
		m.Reset()
		if m.Rank() != 0 {
			t.Fatalf("rank %d after Reset", m.Rank())
		}
		ref := newRefMatrix(cols)
		for i := 0; i < 2*cols; i++ {
			v := randBV(cols, rng)
			if m.Insert(v) != ref.insert(v) {
				t.Fatalf("round %d: diverged from reference at insert %d", round, i)
			}
		}
		for i := 0; i < m.Rank(); i++ {
			if !m.Row(i).Equal(ref.rows[i]) {
				t.Fatalf("round %d: row %d corrupted after reuse", round, i)
			}
		}
		if got := m.MemoryBytes(); got != memAtFull {
			t.Fatalf("round %d: slab reallocated after Reset: %d -> %d bytes", round, memAtFull, got)
		}
	}
}

// TestBitMatrixInsertZeroAllocAtCapacity pins the steady-state claim:
// once the slab has grown to the working rank, further Inserts (both
// rejected duplicates and a Reset/refill cycle) allocate nothing.
func TestBitMatrixInsertZeroAllocAtCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const cols = 192
	m := NewBitMatrix(cols)
	vecs := make([]BitVec, cols)
	for i := range vecs {
		vecs[i] = randBV(cols, rng)
	}
	for _, v := range vecs {
		m.Insert(v)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Reset()
		for _, v := range vecs {
			m.Insert(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+refill at capacity allocated %.1f times per run, want 0", allocs)
	}
}

// spreadBasis inserts rows random vectors, the i-th zeroed below column
// i·cols/rows, so the basis has pivots in every word of the row rather
// than only in the first rank columns.
func spreadBasis(cols, rows int, rng *rand.Rand) *BitMatrix {
	m := NewBitMatrix(cols)
	for i := 0; i < rows; i++ {
		v := randBV(cols, rng)
		for b := 0; b < i*cols/rows; b++ {
			v.Set(b, false)
		}
		m.Insert(v)
	}
	return m
}

// checkXorRows compares one kernel call with the loop it replaced: one
// whole-row xor per selected echelon row below the rank.
func checkXorRows(t *testing.T, m *BitMatrix, dst BitVec, chunk int, mask uint64) {
	t.Helper()
	want := dst.Clone()
	for i := 0; i < 64; i++ {
		if r := 64*chunk + i; mask>>uint(i)&1 == 1 && r < m.Rank() {
			naiveXor(want, m.Row(r))
		}
	}
	m.XorRows(dst, chunk, mask)
	if !dst.Equal(want) {
		t.Fatalf("cols=%d rank=%d chunk=%d mask=%#x: kernel and per-row loop differ", m.Cols(), m.Rank(), chunk, mask)
	}
}

// TestXorRowsMatchesPerRowLoop sweeps the kernel over every stride from
// 0 to 20 words — so every mix of eight-word blocks, the four-word
// block and single-word tails, from every starting word — at ranks that
// are not multiples of 64, for the edge masks and random ones, on every
// chunk up to one beyond the rank.
func TestXorRowsMatchesPerRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for stride := 0; stride <= 20; stride++ {
		for _, cols := range []int{64 * stride, 64*stride - 13} {
			if cols < 0 {
				continue
			}
			m := spreadBasis(cols, min(cols, 150), rng)
			seen := make([]bool, stride)
			for i := 0; i < m.Rank(); i++ {
				seen[m.Lead(i)>>6] = true
			}
			for w, ok := range seen {
				if !ok && cols >= 150 {
					t.Fatalf("cols=%d: no pivot in word %d, the sweep would not start there", cols, w)
				}
			}
			for chunk := 0; chunk <= m.Rank()>>6+1; chunk++ {
				masks := []uint64{0, 1, 1 << 63, ^uint64(0), rng.Uint64(), rng.Uint64() & rng.Uint64(), rng.Uint64()}
				for _, mask := range masks {
					checkXorRows(t, m, randBV(cols, rng), chunk, mask)
				}
			}
		}
	}
}

// TestReduceSelectsRowsUpFront tests the premise reduceInPlace rests
// on: against a reduced basis, the rows a reduction xors are the ones
// whose pivot bit is set in the vector as it arrives, because no stored
// row touches another row's pivot column. The second half shows the
// premise is RREF's, not echelon form's.
func TestReduceSelectsRowsUpFront(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, cols := range []int{1, 64, 200, 777} {
		m := spreadBasis(cols, cols/2+1, rng)
		for trial := 0; trial < 20; trial++ {
			v := randBV(cols, rng)
			seq, upfront := v.Clone(), v.Clone()
			for i := 0; i < m.Rank(); i++ {
				if seq.Bit(m.Lead(i)) {
					naiveXor(seq, m.Row(i))
				}
				if v.Bit(m.Lead(i)) {
					naiveXor(upfront, m.Row(i))
				}
			}
			if !seq.Equal(upfront) || !m.Reduce(v).Equal(seq) {
				t.Fatalf("cols=%d: row-by-row, up-front and Reduce disagree", cols)
			}
		}
	}
	// Echelon but not reduced: row 0 is set in row 1's pivot column, so
	// xoring it flips a bit the up-front selection has already read.
	rows := []BitVec{bvFromString(t, "110"), bvFromString(t, "010")}
	v := bvFromString(t, "100")
	seq, upfront := v.Clone(), v.Clone()
	for i, row := range rows {
		if seq.Bit(i) {
			naiveXor(seq, row)
		}
		if v.Bit(i) {
			naiveXor(upfront, row)
		}
	}
	if !seq.IsZero() || upfront.IsZero() {
		t.Fatalf("non-reduced basis: row-by-row left %v, up-front %v; want zero and nonzero", seq, upfront)
	}
}
