package gf

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMatrixInsertRank(t *testing.T) {
	f := MustPrime(7)
	m := NewMatrix(f, 3)
	if !m.Insert(Vec{1, 2, 3}) {
		t.Error("first insert should grow rank")
	}
	if !m.Insert(Vec{2, 4, 0}) {
		t.Error("independent insert should grow rank")
	}
	if m.Insert(Vec{3, 6, 3}) { // = row1 + row2 over F_7? 1+2=3, 2+4=6, 3+0=3 — dependent
		t.Error("dependent insert should not grow rank")
	}
	if m.Rank() != 2 {
		t.Errorf("rank = %d, want 2", m.Rank())
	}
}

func TestMatrixPivotNormalized(t *testing.T) {
	f := MustPrime(11)
	m := NewMatrix(f, 3)
	m.Insert(Vec{5, 1, 2})
	if got := m.Row(0)[m.Lead(0)]; got != 1 {
		t.Errorf("pivot = %d, want 1", got)
	}
}

// TestMatrixRankMatchesBitMatrix cross-checks the generic matrix against
// the GF(2) specialization on the same random instances.
func TestMatrixRankMatchesBitMatrix(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(30)
		nrows := rng.Intn(40)
		gm := NewMatrix(GF2{}, cols)
		bm := NewBitMatrix(cols)
		for i := 0; i < nrows; i++ {
			bv := randBV(cols, rng)
			v := NewVec(cols)
			for j := 0; j < cols; j++ {
				if bv.Bit(j) {
					v[j] = 1
				}
			}
			g1 := gm.Insert(v)
			g2 := bm.Insert(bv)
			if g1 != g2 {
				return false
			}
		}
		return gm.Rank() == bm.Rank()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMatrixDecode runs the coding round trip over several fields.
func TestMatrixDecode(t *testing.T) {
	for _, f := range []Field{MustGF2e(4), MustGF2e(8), MustPrime(257)} {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			const k, d = 6, 10
			payloads := make([]Vec, k)
			src := make([]Vec, k)
			for i := range src {
				payloads[i] = RandomVec(f, d, rng.Uint64)
				v := NewVec(k + d)
				v[i] = 1
				copy(v[k:], payloads[i])
				src[i] = v
			}
			m := NewMatrix(f, k+d)
			guard := 0
			for m.Rank() < k {
				if guard++; guard > 1000 {
					t.Fatal("failed to reach full rank in 1000 random combinations")
				}
				mix := NewVec(k + d)
				for i := range src {
					mix.AddScaled(f, uniformMod(f.Q(), rng.Uint64), src[i])
				}
				m.Insert(mix)
			}
			m.RREF()
			if !m.SpansUnitPrefix(k) {
				t.Fatal("full rank but unit prefix not spanned")
			}
			for i := 0; i < k; i++ {
				row, ok := m.UnitRow(i, k)
				if !ok {
					t.Fatalf("no unit row for %d", i)
				}
				if !slices.Equal(row[k:], payloads[i]) {
					t.Fatalf("payload %d mismatch", i)
				}
			}
		})
	}
}

func TestMatrixContains(t *testing.T) {
	f := MustPrime(5)
	m := NewMatrix(f, 3)
	m.Insert(Vec{1, 1, 0})
	m.Insert(Vec{0, 1, 1})
	tests := []struct {
		v    Vec
		want bool
	}{
		{Vec{1, 1, 0}, true},
		{Vec{2, 2, 0}, true},
		{Vec{1, 2, 1}, true}, // row1 + row2
		{Vec{0, 0, 0}, true},
		{Vec{1, 0, 0}, false},
	}
	for _, tt := range tests {
		if got := m.Reduce(tt.v).Leading() < 0; got != tt.want {
			t.Errorf("Reduce(%v) is zero: %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestMatrixClone(t *testing.T) {
	f := GF2{}
	m := NewMatrix(f, 2)
	m.Insert(Vec{1, 0})
	c := m.Clone()
	c.Insert(Vec{0, 1})
	if m.Rank() != 1 || c.Rank() != 2 {
		t.Errorf("clone not independent: ranks %d, %d", m.Rank(), c.Rank())
	}
}

func TestVecOps(t *testing.T) {
	f := MustPrime(7)
	v := Vec{1, 2, 3}
	v.AddScaled(f, 2, Vec{3, 0, 1})
	if !slices.Equal(v, Vec{0, 2, 5}) {
		t.Errorf("AddScaled result %v, want [0 2 5]", v)
	}
	v.Scale(f, 3)
	if !slices.Equal(v, Vec{0, 6, 1}) {
		t.Errorf("Scale result %v, want [0 6 1]", v)
	}
	if got := (Vec{1, 2}).Dot(f, Vec{3, 4}); got != (3+8)%7 {
		t.Errorf("Dot = %d, want %d", got, (3+8)%7)
	}
	if (Vec{0, 0}).Leading() != -1 {
		t.Error("Leading of zero vec should be -1")
	}
	if (Vec{0, 5, 0}).Leading() != 1 {
		t.Error("Leading index wrong")
	}
}

func TestUniformModUnbiasedSupport(t *testing.T) {
	// All residues of a non-power-of-two modulus must be reachable.
	rng := rand.New(rand.NewSource(2))
	const q = 5
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[uniformMod(q, rng.Uint64)] = true
	}
	for r := uint64(0); r < q; r++ {
		if !seen[r] {
			t.Errorf("residue %d never drawn", r)
		}
	}
}
