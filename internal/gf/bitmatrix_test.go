package gf

import (
	"math/rand"
	"slices"
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
// allocation per echelon row, identical insert/back-eliminate logic,
// the whole row reduced before the pivot limit is read. The slab-backed
// BitMatrix must agree with it on every observable.
type refMatrix struct {
	cols, pivots int
	rows         []BitVec
	lead         []int
}

func newRefMatrix(cols int) *refMatrix { return &refMatrix{cols: cols, pivots: cols} }

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
	if lb < 0 || lb >= m.pivots {
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
// rejected duplicates and a Reset/refill cycle) and XorRows calls
// allocate nothing — at a narrow shape and at gossip-deep's (K 768,
// 1856-bit rows), on every kernel.
func TestBitMatrixInsertZeroAllocAtCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range []struct{ cols, rows int }{{192, 192}, {1856, 768}} {
		vecs := make([]BitVec, sh.rows)
		for i := range vecs {
			vecs[i] = randBV(sh.cols, rng)
		}
		dst := NewBitVec(sh.cols)
		for _, vec := range kernels() {
			withKernel(vec, func() {
				m := NewBitMatrix(sh.cols)
				for _, v := range vecs {
					m.Insert(v)
				}
				allocs := testing.AllocsPerRun(5, func() {
					m.Reset()
					for _, v := range vecs {
						m.Insert(v)
					}
					for chunk := 0; chunk<<6 < m.Rank(); chunk++ {
						m.XorRows(dst, chunk, ^uint64(0))
					}
				})
				if allocs != 0 {
					t.Fatalf("%s kernel, cols=%d: Reset+refill+combine at capacity allocated %.1f times per run, want 0", kernelName(vec), sh.cols, allocs)
				}
			})
		}
	}
}

// kernels lists the subset-xor kernels this CPU runs: the Go loops
// always (false), the AVX-512F pair (true) where CPUID reports it.
func kernels() []bool {
	if hasAVX512() {
		return []bool{false, true}
	}
	return []bool{false}
}

func kernelName(vec bool) string {
	if vec {
		return "avx512"
	}
	return "go"
}

// withKernel runs f with the AVX-512F kernels switched on or off, and
// restores the dispatch after. A test that calls it must not run in
// parallel with another gf test.
func withKernel(vec bool, f func()) {
	saved := useAVX512
	defer func() { useAVX512 = saved }()
	useAVX512 = vec
	f()
}

// checkSameMatrix requires identical slabs — free rows included — order
// and leads.
func checkSameMatrix(t *testing.T, a, b *BitMatrix) {
	t.Helper()
	if !slices.Equal(a.slab, b.slab) || !slices.Equal(a.order, b.order) || !slices.Equal(a.lead, b.lead) {
		t.Fatalf("cols=%d: the kernels left different matrices (rank %d and %d)", a.cols, a.Rank(), b.Rank())
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

// checkXorRows compares one XorRows call on every kernel with the loop
// it replaced: one whole-row xor per selected echelon row below the
// rank. Equal to the loop, the kernels are bit-equal to each other.
func checkXorRows(t *testing.T, m *BitMatrix, dst BitVec, chunk int, mask uint64) {
	t.Helper()
	want := dst.Clone()
	for i := 0; i < 64; i++ {
		if r := 64*chunk + i; mask>>uint(i)&1 == 1 && r < m.Rank() {
			naiveXor(want, m.Row(r))
		}
	}
	for _, vec := range kernels() {
		got := dst.Clone()
		withKernel(vec, func() { m.XorRows(got, chunk, mask) })
		if !got.Equal(want) {
			t.Fatalf("%s kernel, cols=%d rank=%d chunk=%d mask=%#x: kernel and per-row loop differ", kernelName(vec), m.Cols(), m.Rank(), chunk, mask)
		}
	}
}

// TestXorRowsMatchesPerRowLoop sweeps the kernels over every stride from
// 0 to 70 words — so every mix of eight-word blocks, the four-word
// block and single-word tails of the Go loop, and of full and masked
// 32-word panels of the vector kernel, from every starting word — at
// ranks that are not multiples of 64, for the edge masks and random
// ones, on every chunk up to one beyond the rank.
func TestXorRowsMatchesPerRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for stride := 0; stride <= 70; stride++ {
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

// TestInsertKernelsAgree drives one matrix per kernel through the same
// inserts — rows zeroed below a moving column, so pivots and
// back-eliminations start in every word, and every third one the sum of
// the two before it, which is rejected — at widths from one word to past
// two of the vector kernels' 32-word panels. Then it does the same for
// a coding matrix (LimitPivots) at each width, fed codingVecs. Slab —
// the scratch row included — order and leads must be identical after
// every insert.
func TestInsertKernelsAgree(t *testing.T) {
	if len(kernels()) < 2 {
		t.Skip("one kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(17))
	for _, cols := range []int{64, 190, 383, 511, 512, 1856, 2048, 2049, 4160, 4200} {
		rows := min(cols, 160)
		var vecs []BitVec
		for i := 0; i < 2*rows; i++ {
			v := randBV(cols, rng)
			for b := 0; b < i%rows*cols/rows; b++ {
				v.Set(b, false)
			}
			if i%3 == 2 {
				v = vecs[i-2].Clone()
				v.Xor(vecs[i-1])
			}
			vecs = append(vecs, v)
		}
		insertKernelsAgree(t, cols, cols, vecs)
		k := min(cols/2, 200)
		insertKernelsAgree(t, cols, k, codingVecs(k, cols, rng))
	}
}

// insertKernelsAgree inserts vecs into one matrix per kernel, pivots
// limited to the first pivots columns, and requires the same decision
// and the same matrix after each.
func insertKernelsAgree(t *testing.T, cols, pivots int, vecs []BitVec) {
	t.Helper()
	ks := kernels()
	ms := []*BitMatrix{NewBitMatrix(cols), NewBitMatrix(cols)}
	for _, m := range ms {
		m.LimitPivots(pivots)
	}
	for i, v := range vecs {
		var grew [2]bool
		for j, vec := range ks {
			withKernel(vec, func() { grew[j] = ms[j].Insert(v) })
		}
		if grew[0] != grew[1] {
			t.Fatalf("cols=%d pivots=%d insert %d: go kernel grew=%v, avx512 %v", cols, pivots, i, grew[0], grew[1])
		}
		checkSameMatrix(t, ms[0], ms[1])
	}
	checkRREFInvariants(t, ms[1])
}

// codingVecs is what a coding matrix of k coefficients and cols columns
// is sent: random combinations of k source rows (unit coefficients,
// random payloads), every fourth the sum of the two before (dependent),
// every fifth the one before with a payload bit flipped (contradicting),
// 2k+8 in all, so the matrix reaches full rank and refuses past it.
func codingVecs(k, cols int, rng *rand.Rand) []BitVec {
	src := make([]BitVec, k)
	for j := range src {
		src[j] = randBV(cols, rng)
		for b := range k {
			src[j].Set(b, b == j)
		}
	}
	var out []BitVec
	for i := range 2*k + 8 {
		var v BitVec
		switch {
		case i%4 == 3:
			v = out[i-1].Clone()
			v.Xor(out[i-2])
		case i%5 == 4 && k < cols:
			v = out[i-1].Clone()
			v.Flip(k + rng.Intn(cols-k))
		default:
			v = NewBitVec(cols)
			for _, s := range src {
				if rng.Intn(2) == 1 {
					v.Xor(s)
				}
			}
		}
		out = append(out, v)
	}
	return out
}

// TestInsertMatchesPerRowOnSpreadPivots holds Insert to the per-row
// reference where pivot words are not full — rows zeroed below a moving
// column, with and without a pivot limit — so the row selection's
// 64-row chunks straddle pivot words and carry bits from one chunk to
// the next. Every third vector is the sum of the two before. Decisions,
// leads and rows must match, on every kernel.
func TestInsertMatchesPerRowOnSpreadPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, sh := range []struct{ cols, pivots, rows int }{{200, 200, 210}, {777, 777, 300}, {1500, 900, 330}, {640, 333, 240}} {
		var vecs []BitVec
		for i := range sh.rows {
			v := randBV(sh.cols, rng)
			for b := 0; b < i*sh.pivots/sh.rows; b++ {
				v.Set(b, false)
			}
			if i%3 == 2 {
				v = vecs[i-2].Clone()
				v.Xor(vecs[i-1])
			}
			vecs = append(vecs, v)
		}
		for _, vec := range kernels() {
			m := NewBitMatrix(sh.cols)
			m.LimitPivots(sh.pivots)
			withKernel(vec, func() { insertChecked(t, m, vecs) })
			if m.Rank() <= 128 {
				t.Fatalf("cols=%d: rank %d, want past two chunks", sh.cols, m.Rank())
			}
		}
	}
}

// TestFullRankRefusesAtOnce: a coding matrix whose every pivot column is
// taken refuses a vector without growing or writing its slab, and
// without allocating.
func TestFullRankRefusesAtOnce(t *testing.T) {
	const k, cols = 8, 8 + 100
	rng := rand.New(rand.NewSource(34))
	for _, vec := range kernels() {
		withKernel(vec, func() {
			m := NewBitMatrix(cols)
			m.LimitPivots(k)
			for _, v := range codingVecs(k, cols, rng) {
				m.Insert(v)
			}
			if m.Rank() != k {
				t.Fatalf("rank %d, want %d", m.Rank(), k)
			}
			slab := slices.Clone(m.slab)
			v := randBV(cols, rng)
			if allocs := testing.AllocsPerRun(10, func() {
				if m.Insert(v) {
					t.Fatal("a full-rank matrix grew")
				}
			}); allocs != 0 {
				t.Errorf("%s kernel: a full-rank refusal allocated %.1f times", kernelName(vec), allocs)
			}
			if !slices.Equal(m.slab, slab) {
				t.Errorf("%s kernel: a full-rank refusal wrote the slab (%d words, was %d)", kernelName(vec), len(m.slab), len(slab))
			}
		})
	}
}

// TestKernelsStopAtSlabEnd runs the kernels over slabs whose last row
// ends exactly where the allocation does — at an inaccessible page where
// the OS offers one — so a panel load or store past a row's last word
// faults or reads foreign bits; and over an order slice that ends the
// same way, since the kernels read it too. XorRows reads every row of a
// slab of exactly rank rows; Insert reduces and back-eliminates in a
// slab whose free row is its last.
func TestKernelsStopAtSlabEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, cols := range []int{70, 64 * 3, 64*6 - 7, 64 * 8, 64*9 - 5, 1856, 64 * 32, 64*33 + 1, 64*65 + 1} {
		basis := spreadBasis(cols, min(cols, 100), rng).Clone()
		rank, stride := basis.Rank(), basis.stride
		atEnd := func(m *BitMatrix, rows int) {
			m.slab = endOfAllocation[uint64](t, rows*stride)
			copy(m.slab, basis.slab)
			m.order = endOfAllocation[int32](t, rank)
			copy(m.order, basis.order)
		}
		exact := basis.Clone()
		atEnd(exact, rank)
		for chunk := 0; chunk<<6 < rank; chunk++ {
			checkXorRows(t, exact, randBV(cols, rng), chunk, ^uint64(0))
		}
		v := randBV(cols, rng)
		var want *BitMatrix
		for _, vec := range kernels() {
			m := basis.Clone()
			atEnd(m, rank+1)
			withKernel(vec, func() { m.Insert(v) })
			if want == nil {
				want = m
			}
			checkSameMatrix(t, m, want)
		}
		checkRREFInvariants(t, want)
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

// TestKernelsReport names the kernels this CPU runs, so a CI log says
// whether the assembly executed at all (run it with -v).
func TestKernelsReport(t *testing.T) {
	for _, vec := range kernels() {
		t.Logf("subset-xor kernel: %s", kernelName(vec))
	}
}

// coldFill returns k random vectors of cols bits, independent, and a
// matrix per run that expects rank k, as rlnc.NewSpan builds them.
func coldFill(t *testing.T, cols, k, runs int, rng *rand.Rand) ([]BitVec, []*BitMatrix) {
	t.Helper()
	vecs := make([]BitVec, k)
	check := NewBitMatrix(cols)
	for i := range vecs {
		for vecs[i] = randBV(cols, rng); !check.Insert(vecs[i]); vecs[i] = randBV(cols, rng) {
		}
	}
	ms := make([]*BitMatrix, runs)
	for i := range ms {
		ms[i] = NewBitMatrixExpecting(cols, k)
	}
	return vecs, ms
}

// rowBytes is what MemoryBytes charges a row: its slab words and its
// order and lead entries.
func rowBytes(m *BitMatrix) int { return 8*m.stride + 4 + 8 }

// TestColdFillAllocations: a matrix that expects rank k, at
// gossip-wide's shape (K 32, 3-word rows), is filled from rank 0 to k
// with five allocations — order and lead at their final size with a
// one-row slab, the slab at two rows, then at its final size — and ends
// holding k+1 rows, the rank and the scratch row.
func TestColdFillAllocations(t *testing.T) {
	const k, cols, runs = 32, 32 + 128, 20
	for _, vec := range kernels() {
		vecs, ms := coldFill(t, cols, k, runs+1, rand.New(rand.NewSource(30)))
		next := 0
		withKernel(vec, func() {
			allocs := testing.AllocsPerRun(runs, func() {
				for _, v := range vecs {
					ms[next].Insert(v)
				}
				next++
			})
			if allocs != 5 {
				t.Errorf("%s kernel: a cold fill to rank %d allocated %.1f times, want 5", kernelName(vec), k, allocs)
			}
		})
		for _, m := range ms {
			if m.Rank() != k || m.MemoryBytes() != (k+1)*rowBytes(m) {
				t.Fatalf("%s kernel: rank %d and %d bytes after the fill, want %d and %d", kernelName(vec), m.Rank(), m.MemoryBytes(), k, (k+1)*rowBytes(m))
			}
		}
	}
}

// TestDeepFillStopsAtExpectation: a basis larger than eagerBytes, at
// gossip-deep's shape (K 768, 29-word rows), allocates its first row
// alone, as a matrix with no expectation does, doubles from there — at
// most twice its rank in rows — and never holds more than k+1 rows,
// however many dependent vectors arrive at full rank.
func TestDeepFillStopsAtExpectation(t *testing.T) {
	const k, cols = 768, 768 + 1088
	for _, vec := range kernels() {
		vecs, ms := coldFill(t, cols, k, 1, rand.New(rand.NewSource(31)))
		m := ms[0]
		withKernel(vec, func() {
			for i := range k + 3 {
				v := vecs[i%k]
				if i >= k {
					v = v.Clone()
					v.Xor(vecs[i-k+1])
				}
				if m.Insert(v) && m.Rank() == 1 && m.MemoryBytes() != rowBytes(m) {
					t.Fatalf("%s kernel: %d bytes after the first Insert, want one row's %d", kernelName(vec), m.MemoryBytes(), rowBytes(m))
				}
				if rows := len(m.slab) / m.stride; rows > min(k+1, max(1, 2*m.Rank())) || m.MemoryBytes() > rows*rowBytes(m) {
					t.Fatalf("%s kernel: %d slab rows, %d bytes at rank %d, want at most %d rows", kernelName(vec), rows, m.MemoryBytes(), m.Rank(), min(k+1, max(1, 2*m.Rank())))
				}
			}
		})
		if m.MemoryBytes() != (k+1)*rowBytes(m) {
			t.Errorf("%s kernel: %d bytes at full rank, want %d", kernelName(vec), m.MemoryBytes(), (k+1)*rowBytes(m))
		}
	}
}

// TestGrowthPastExpectation: a matrix that expects rank k still takes
// rows past k+1 — payload-only vectors, as a corrupted payload makes
// them — on both sides of eagerBytes. The kernels must agree and the
// basis stay in RREF.
func TestGrowthPastExpectation(t *testing.T) {
	for _, sh := range []struct{ k, cols int }{{8, 8 + 200}, {40, 64 * 110}} {
		rng := rand.New(rand.NewSource(32))
		var vecs []BitVec
		for i := 0; i < sh.k+40; i++ {
			v := randBV(sh.cols, rng)
			for b := 0; b < sh.k; b++ {
				v.Set(b, i == b)
			}
			vecs = append(vecs, v)
		}
		var want *BitMatrix
		for _, vec := range kernels() {
			m := NewBitMatrixExpecting(sh.cols, sh.k)
			withKernel(vec, func() { insertChecked(t, m, vecs) })
			if m.Rank() <= sh.k+1 {
				t.Fatalf("cols=%d: rank %d, want past %d", sh.cols, m.Rank(), sh.k+1)
			}
			if want == nil {
				want = m
			}
			checkSameMatrix(t, m, want)
		}
	}
}

// TestCloneKeepsExpectation: a clone expects the rank its original does,
// so its first Insert past two rows allocates the whole of a small
// basis.
func TestCloneKeepsExpectation(t *testing.T) {
	const k, cols = 32, 32 + 128
	vecs, ms := coldFill(t, cols, k, 1, rand.New(rand.NewSource(33)))
	for _, vec := range kernels() {
		withKernel(vec, func() {
			m := ms[0].Clone()
			m.Reset()
			for _, v := range vecs[:5] {
				m.Insert(v)
			}
			c := m.Clone()
			c.Insert(vecs[5])
			if c.expect != m.expect || c.MemoryBytes() != (k+1)*rowBytes(c) {
				t.Errorf("%s kernel: clone expects %d rows and holds %d bytes, want %d and %d", kernelName(vec), c.expect, c.MemoryBytes(), m.expect, (k+1)*rowBytes(c))
			}
		})
	}
}
