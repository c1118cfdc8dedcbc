package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randBV(n int, rng *rand.Rand) BitVec {
	return RandomBitVec(n, rng.Uint64)
}

func TestBitVecSetGet(t *testing.T) {
	v := NewBitVec(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i, true)
	}
	for i := 0; i < 130; i++ {
		want := false
		for _, j := range idx {
			if i == j {
				want = true
			}
		}
		if v.Bit(i) != want {
			t.Errorf("bit %d = %v, want %v", i, v.Bit(i), want)
		}
	}
	if got := v.OnesCount(); got != len(idx) {
		t.Errorf("OnesCount = %d, want %d", got, len(idx))
	}
	for _, i := range idx {
		v.Set(i, false)
	}
	if !v.IsZero() {
		t.Error("vector not zero after clearing all bits")
	}
}

func TestBitVecFlip(t *testing.T) {
	v := NewBitVec(70)
	v.Set(69, !v.Bit(69))
	if !v.Bit(69) {
		t.Error("Flip did not set bit")
	}
	v.Set(69, !v.Bit(69))
	if v.Bit(69) {
		t.Error("double Flip did not clear bit")
	}
}

func TestBitVecXorIsAddition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		a, b := randBV(n, rng), randBV(n, rng)
		sum := a.Clone()
		sum.Xor(b)
		for i := 0; i < n; i++ {
			want := a.Bit(i) != b.Bit(i)
			if sum.Bit(i) != want {
				t.Fatalf("n=%d bit %d: xor=%v want %v", n, i, sum.Bit(i), want)
			}
		}
		// x + x = 0.
		sum.Xor(b)
		if !sum.Equal(a) {
			t.Fatalf("n=%d: (a^b)^b != a", n)
		}
	}
}

func TestBitVecDot(t *testing.T) {
	tests := []struct {
		a, b string
		want uint64
	}{
		{"0000", "0000", 0},
		{"1000", "1000", 1},
		{"1100", "1100", 0},
		{"1110", "1011", 0},
		{"1110", "1111", 1},
	}
	for _, tt := range tests {
		a := bvFromString(t, tt.a)
		b := bvFromString(t, tt.b)
		if got := a.DotPrefix(b); got != tt.want {
			t.Errorf("DotPrefix(%s,%s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func bvFromString(t *testing.T, s string) BitVec {
	t.Helper()
	v := NewBitVec(len(s))
	for i, c := range s {
		v.Set(i, c == '1')
	}
	return v
}

// TestBitVecDotBilinear checks <a+b, c> = <a,c> + <b,c> over random vectors.
func TestBitVecDotBilinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b, c := randBV(n, rng), randBV(n, rng), randBV(n, rng)
		ab := a.Clone()
		ab.Xor(b)
		return ab.DotPrefix(c) == (a.DotPrefix(c)+b.DotPrefix(c))%2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// leadingBit returns the index of v's first (lowest-index) set bit, or
// -1 if v is zero: the pivot of an echelon row in this package.
func leadingBit(v BitVec) int {
	for i := 0; i < v.Len(); i++ {
		if v.Bit(i) {
			return i
		}
	}
	return -1
}

func TestBitVecLeadingBit(t *testing.T) {
	tests := []struct {
		n    int
		set  []int
		want int
	}{
		{10, nil, -1},
		{10, []int{3}, 3},
		{10, []int{9, 3}, 3},
		{200, []int{150}, 150},
		{200, []int{64}, 64},
		{65, []int{64}, 64},
	}
	for _, tt := range tests {
		v := NewBitVec(tt.n)
		for _, i := range tt.set {
			v.Set(i, true)
		}
		if got := leadingBit(v); got != tt.want {
			t.Errorf("n=%d set=%v: LeadingBit = %d, want %d", tt.n, tt.set, got, tt.want)
		}
	}
}

func TestBitVecSliceAndCopyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randBV(150, rng)
	s := v.Slice(40, 110)
	if s.Len() != 70 {
		t.Fatalf("slice length %d, want 70", s.Len())
	}
	for i := 0; i < 70; i++ {
		if s.Bit(i) != v.Bit(40+i) {
			t.Fatalf("slice bit %d mismatch", i)
		}
	}
	dst := NewBitVec(150)
	s.CopyInto(dst, 40)
	for i := 0; i < 150; i++ {
		want := i >= 40 && i < 110 && v.Bit(i)
		if dst.Bit(i) != want {
			t.Fatalf("CopyInto bit %d = %v, want %v", i, dst.Bit(i), want)
		}
	}
}

// TestBitVecCopyIntoMatchesPerBit holds the word-at-a-time CopyInto to
// the per-bit copy over aligned and unaligned offsets, lengths on both
// sides of a word boundary, and a nonzero destination whose other bits
// must survive.
func TestBitVecCopyIntoMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 5, 63, 64, 65, 70, 127, 128, 130, 1024} {
		for _, off := range []int{0, 1, 37, 63, 64, 65, 100, 768} {
			for _, pad := range []int{0, 3, 64} {
				v := randBV(n, rng)
				dst := randBV(off+n+pad, rng)
				want := dst.Clone()
				for i := 0; i < n; i++ {
					want.Set(off+i, v.Bit(i))
				}
				v.CopyInto(dst, off)
				if !dst.Equal(want) {
					t.Fatalf("n=%d off=%d pad=%d: CopyInto differs from the per-bit copy", n, off, pad)
				}
			}
		}
	}
}

func TestBitVecWord(t *testing.T) {
	v := NewBitVec(70)
	v.SetWord(0, 0xfeedface12345678)
	v.SetWord(1, ^uint64(0))
	if v.Word(0) != 0xfeedface12345678 || v.Word(1) != 1<<6-1 {
		t.Fatalf("words %#x %#x, want the first whole and the second cut to 6 bits", v.Word(0), v.Word(1))
	}
	for i := 0; i < 70; i++ {
		want := i >= 64 || uint64(0xfeedface12345678)>>uint(i)&1 == 1
		if v.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, v.Bit(i), want)
		}
	}
}

func TestBitVecBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 200} {
		v := randBV(n, rng)
		got := BitVecFromBytes(v.AppendBytes(nil), n)
		if !got.Equal(v) {
			t.Errorf("n=%d: bytes round trip mismatch", n)
		}
	}
}

func TestBitVecString(t *testing.T) {
	v := NewBitVec(5)
	v.Set(1, true)
	v.Set(4, true)
	if got, want := v.String(), "01001"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestBitVecPanicsOnMismatch(t *testing.T) {
	a, b := NewBitVec(5), NewBitVec(6)
	assertPanics(t, "Xor", func() { a.Xor(b) })
	assertPanics(t, "DotPrefix", func() { _ = a.DotPrefix(b) })
	assertPanics(t, "Bit out of range", func() { _ = a.Bit(5) })
	assertPanics(t, "Set out of range", func() { a.Set(-1, true) })
	assertPanics(t, "Slice out of range", func() { _ = a.Slice(2, 9) })
	assertPanics(t, "negative length", func() { _ = NewBitVec(-1) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestRandomBitVecTailMasked(t *testing.T) {
	// The tail mask matters for word-wise Equal/IsZero.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		v := randBV(65, rng)
		u := v.Clone()
		u.Xor(v)
		if !u.IsZero() {
			t.Fatal("v^v != 0 — tail bits leaked")
		}
	}
}

// TestBitVecSliceIntoAndEqual holds SliceInto and SliceEqual to a
// bit-by-bit slice, and SliceEqual to Slice(lo, hi).Equal, at every
// offset 0…130 of a 300-bit vector, for lengths on both sides of word
// boundaries and up to the tail: SliceInto into a destination holding
// other bits, SliceEqual against the slice and against it with one bit
// flipped.
func TestBitVecSliceIntoAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := randBV(300, rng)
	for lo := 0; lo <= 130; lo++ {
		for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 170 - lo%7, 300 - lo - 1, 300 - lo} {
			want := NewBitVec(n)
			for i := range n {
				want.Set(i, v.Bit(lo+i))
			}
			dst := randBV(n, rng)
			v.SliceInto(dst, lo)
			if !dst.Equal(want) || !v.Slice(lo, lo+n).Equal(want) {
				t.Fatalf("lo=%d n=%d: SliceInto or Slice differs from the bit-by-bit slice", lo, n)
			}
			if !v.SliceEqual(lo, want) {
				t.Fatalf("lo=%d n=%d: SliceEqual misses its own slice", lo, n)
			}
			if n > 0 {
				u := want.Clone()
				b := rng.Intn(n)
				u.Set(b, !u.Bit(b))
				if v.SliceEqual(lo, u) || v.Slice(lo, lo+n).Equal(u) {
					t.Fatalf("lo=%d n=%d: a slice equals itself with a bit flipped", lo, n)
				}
			}
		}
	}
}

// TestNewBitVecsOwnTheirRanges: the vectors of one NewBitVecs call, and
// a word-aligned From view of one, write only their own words.
func TestNewBitVecsOwnTheirRanges(t *testing.T) {
	vs := NewBitVecs(130, 3)
	for i := range 130 {
		vs[1].Set(i, true)
	}
	tail := vs[1].From(64)
	if tail.Len() != 66 || tail.OnesCount() != 66 {
		t.Fatalf("From(64) of 130 ones: %d bits, %d set", tail.Len(), tail.OnesCount())
	}
	tail.Zero()
	if vs[0].OnesCount() != 0 || vs[2].OnesCount() != 0 || vs[1].OnesCount() != 64 {
		t.Fatalf("ones after the writes: %d, %d, %d; want 0, 64, 0", vs[0].OnesCount(), vs[1].OnesCount(), vs[2].OnesCount())
	}
}
