package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func allFields(t *testing.T) map[string]Field {
	t.Helper()
	return map[string]Field{
		"GF(2)":    GF2{},
		"GF(2^2)":  MustGF2e(2),
		"GF(2^3)":  MustGF2e(3),
		"GF(2^4)":  MustGF2e(4),
		"GF(2^8)":  MustGF2e(8),
		"GF(2^16)": MustGF2e(16),
		"F_2":      MustPrime(2),
		"F_3":      MustPrime(3),
		"F_257":    MustPrime(257),
		"F_65537":  MustPrime(65537),
	}
}

func TestFieldBits(t *testing.T) {
	tests := []struct {
		f    Field
		want int
	}{
		{GF2{}, 1},
		{MustGF2e(2), 2},
		{MustGF2e(8), 8},
		{MustGF2e(16), 16},
		{MustPrime(2), 1},
		{MustPrime(3), 2},
		{MustPrime(257), 9},
		{MustPrime(65537), 17},
	}
	for _, tt := range tests {
		if got := tt.f.Bits(); got != tt.want {
			t.Errorf("%v.Bits() = %d, want %d", tt.f, got, tt.want)
		}
	}
}

// TestFieldAxioms exhaustively checks the field axioms on all element
// pairs for small fields and on random samples for large ones.
func TestFieldAxioms(t *testing.T) {
	for name, f := range allFields(t) {
		f := f
		t.Run(name, func(t *testing.T) {
			q := f.Q()
			rng := rand.New(rand.NewSource(1))
			sample := func() uint64 {
				if q <= 64 {
					return rng.Uint64() % q
				}
				return rng.Uint64() % q
			}
			iters := 2000
			if q <= 16 {
				// Exhaustive over all pairs.
				for a := uint64(0); a < q; a++ {
					for b := uint64(0); b < q; b++ {
						checkPair(t, f, a, b)
					}
				}
				return
			}
			for i := 0; i < iters; i++ {
				checkPair(t, f, sample(), sample())
			}
		})
	}
}

func checkPair(t *testing.T, f Field, a, b uint64) {
	t.Helper()
	q := f.Q()
	if got := f.Add(a, b); got >= q {
		t.Fatalf("%v: Add(%d,%d) = %d out of range", f, a, b, got)
	}
	if f.Add(a, b) != f.Add(b, a) {
		t.Fatalf("%v: Add not commutative at (%d,%d)", f, a, b)
	}
	if f.Mul(a, b) != f.Mul(b, a) {
		t.Fatalf("%v: Mul not commutative at (%d,%d)", f, a, b)
	}
	if f.Add(a, 0) != a%q {
		t.Fatalf("%v: %d + 0 = %d", f, a, f.Add(a, 0))
	}
	if f.Mul(a, 1) != a%q {
		t.Fatalf("%v: %d * 1 = %d", f, a, f.Mul(a, 1))
	}
	if f.Mul(a, 0) != 0 {
		t.Fatalf("%v: %d * 0 = %d", f, a, f.Mul(a, 0))
	}
	if f.Add(a, f.Neg(a)) != 0 {
		t.Fatalf("%v: %d + (-%d) = %d", f, a, a, f.Add(a, f.Neg(a)))
	}
	if f.Add(f.Add(a, f.Neg(b)), b) != a%q {
		t.Fatalf("%v: (%d - %d) + %d != %d", f, a, b, b, a)
	}
	if a != 0 {
		inv := f.Inv(a)
		if f.Mul(a, inv) != 1 {
			t.Fatalf("%v: %d * Inv(%d)=%d != 1", f, a, a, inv)
		}
	}
}

// TestFieldDistributive verifies a*(b+c) == a*b + a*c via testing/quick.
func TestFieldDistributive(t *testing.T) {
	for name, f := range allFields(t) {
		f := f
		t.Run(name, func(t *testing.T) {
			q := f.Q()
			prop := func(a, b, c uint64) bool {
				a, b, c = a%q, b%q, c%q
				return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestFieldAssociative verifies (a*b)*c == a*(b*c) via testing/quick.
func TestFieldAssociative(t *testing.T) {
	for name, f := range allFields(t) {
		f := f
		t.Run(name, func(t *testing.T) {
			q := f.Q()
			prop := func(a, b, c uint64) bool {
				a, b, c = a%q, b%q, c%q
				return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c)) &&
					f.Add(f.Add(a, b), c) == f.Add(a, f.Add(b, c))
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestGF2eMultiplicativeGroupOrder(t *testing.T) {
	for _, e := range []int{2, 3, 4, 8} {
		f := MustGF2e(e)
		// x (element 2) must generate the full multiplicative group since
		// the polynomial is primitive.
		seen := make(map[uint64]bool)
		x := uint64(1)
		for i := uint64(0); i < f.Q()-1; i++ {
			if seen[x] {
				t.Fatalf("GF(2^%d): generator cycles after %d < q-1 steps", e, i)
			}
			seen[x] = true
			x = f.Mul(x, 2)
		}
		if x != 1 {
			t.Fatalf("GF(2^%d): generator order is not q-1", e)
		}
	}
}

func TestNewGF2eUnsupported(t *testing.T) {
	for _, e := range []int{0, 1, 5, 7, 32} {
		if _, err := NewGF2e(e); err == nil {
			t.Errorf("NewGF2e(%d) succeeded, want error", e)
		}
	}
}

func TestNewPrimeRejects(t *testing.T) {
	tests := []struct {
		p    uint64
		want bool // want success
	}{
		{2, true},
		{3, true},
		{65537, true},
		{4, false},
		{1, false},
		{0, false},
		{1 << 33, false},
		{561, false}, // Carmichael number
	}
	for _, tt := range tests {
		_, err := NewPrime(tt.p)
		if (err == nil) != tt.want {
			t.Errorf("NewPrime(%d): err=%v, want success=%v", tt.p, err, tt.want)
		}
	}
}

func TestIsPrimeSmall(t *testing.T) {
	// Check against trial division for small values.
	trial := func(n uint64) bool {
		if n < 2 {
			return false
		}
		for d := uint64(2); d*d <= n; d++ {
			if n%d == 0 {
				return false
			}
		}
		return true
	}
	for n := uint64(0); n < 2000; n++ {
		if got, want := isPrime(n), trial(n); got != want {
			t.Fatalf("isPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestGF2e8InverseExhaustive checks a * Inv(a) == 1 for every nonzero
// element of GF(2^8).
func TestGF2e8InverseExhaustive(t *testing.T) {
	f := MustGF2e(8)
	for a := uint64(1); a < 256; a++ {
		if got := f.Mul(a, f.Inv(a)); got != 1 {
			t.Fatalf("%d * Inv(%d) = %d", a, a, got)
		}
	}
}

// TestFrobenius checks the freshman's dream (a+b)^2 = a^2 + b^2 in
// characteristic-2 fields.
func TestFrobenius(t *testing.T) {
	for _, e := range []int{2, 4, 8} {
		f := MustGF2e(e)
		for a := uint64(0); a < f.Q(); a++ {
			for b := uint64(0); b < f.Q(); b++ {
				lhs := f.Mul(f.Add(a, b), f.Add(a, b))
				rhs := f.Add(f.Mul(a, a), f.Mul(b, b))
				if lhs != rhs {
					t.Fatalf("GF(2^%d): (a+b)^2 != a^2+b^2 at (%d,%d)", e, a, b)
				}
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	for name, f := range allFields(t) {
		f := f
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: Inv(0) did not panic", f)
				}
			}()
			f.Inv(0)
		})
	}
}
