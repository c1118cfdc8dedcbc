// Package gf implements the finite-field arithmetic that random linear
// network coding is built on: GF(2) with bit-packed vectors, binary
// extension fields GF(2^e) via log/exp tables, and prime fields F_p.
//
// All arithmetic is hand-rolled on uint64 element representations; no
// external dependencies. The package also provides dense vectors and
// matrices over an arbitrary Field together with incremental Gaussian
// elimination, which is the decoder used by the coding layer.
package gf

import (
	"fmt"
	"math/bits"
)

// Field is a finite field with elements represented as uint64 values in
// [0, Q). Implementations must be safe for concurrent use (they are
// stateless after construction).
type Field interface {
	// Q returns the field size q.
	Q() uint64
	// Bits returns ceil(log2 q), the cost in bits of one element.
	Bits() int
	// Add returns a + b.
	Add(a, b uint64) uint64
	// Neg returns -a.
	Neg(a uint64) uint64
	// Mul returns a * b.
	Mul(a, b uint64) uint64
	// Inv returns the multiplicative inverse of a.
	// Inv panics if a == 0; callers must guard, as with integer division.
	Inv(a uint64) uint64
	// String returns a short name such as "GF(2)" or "F_65537".
	String() string
}

// GF2 is the two-element field. It is the field the paper uses for almost
// all of its algorithms ("for most of this paper one can choose q = 2").
type GF2 struct{}

var _ Field = GF2{}

// Q returns 2.
func (GF2) Q() uint64 { return 2 }

// Bits returns 1.
func (GF2) Bits() int { return 1 }

// Add returns a XOR b.
func (GF2) Add(a, b uint64) uint64 { return (a ^ b) & 1 }

// Neg returns a (negation is the identity in GF(2)).
func (GF2) Neg(a uint64) uint64 { return a & 1 }

// Mul returns a AND b.
func (GF2) Mul(a, b uint64) uint64 { return a & b & 1 }

// Inv returns 1 for a == 1 and panics for a == 0.
func (GF2) Inv(a uint64) uint64 {
	if a&1 == 0 {
		panic("gf: inverse of zero in GF(2)")
	}
	return 1
}

// String returns "GF(2)".
func (GF2) String() string { return "GF(2)" }

// primitive polynomials (low bits, including the leading term) for the
// supported binary extension degrees.
var primitivePoly = map[int]uint64{
	2:  0x7,     // x^2 + x + 1
	3:  0xb,     // x^3 + x + 1
	4:  0x13,    // x^4 + x + 1
	8:  0x11d,   // x^8 + x^4 + x^3 + x^2 + 1 (the AES-adjacent Rijndael poly)
	16: 0x1100b, // x^16 + x^12 + x^3 + x + 1
}

// GF2e is the binary extension field GF(2^e) for e in {2, 3, 4, 8, 16},
// implemented with log/exp tables for O(1) multiplication.
type GF2e struct {
	e    int
	q    uint64
	log  []uint16
	exp  []uint16
	mask uint64
}

var _ Field = (*GF2e)(nil)

// NewGF2e constructs GF(2^e). Supported degrees are 2, 3, 4, 8 and 16.
func NewGF2e(e int) (*GF2e, error) {
	poly, ok := primitivePoly[e]
	if !ok {
		return nil, fmt.Errorf("gf: unsupported extension degree %d (want 2, 3, 4, 8 or 16)", e)
	}
	q := uint64(1) << e
	f := &GF2e{
		e:    e,
		q:    q,
		log:  make([]uint16, q),
		exp:  make([]uint16, 2*q),
		mask: q - 1,
	}
	// Generate the cyclic group by repeated multiplication by x.
	x := uint64(1)
	for i := uint64(0); i < q-1; i++ {
		f.exp[i] = uint16(x)
		f.exp[i+q-1] = uint16(x)
		f.log[x] = uint16(i)
		x <<= 1
		if x&q != 0 {
			x ^= poly
		}
	}
	return f, nil
}

// MustGF2e is NewGF2e but panics on an unsupported degree. It is intended
// for package-level defaults with known-good arguments.
func MustGF2e(e int) *GF2e {
	f, err := NewGF2e(e)
	if err != nil {
		panic(err)
	}
	return f
}

// Q returns 2^e.
func (f *GF2e) Q() uint64 { return f.q }

// Bits returns e.
func (f *GF2e) Bits() int { return f.e }

// Add returns a XOR b.
func (f *GF2e) Add(a, b uint64) uint64 { return (a ^ b) & f.mask }

// Neg returns a.
func (f *GF2e) Neg(a uint64) uint64 { return a & f.mask }

// Mul multiplies via the log/exp tables.
func (f *GF2e) Mul(a, b uint64) uint64 {
	a &= f.mask
	b &= f.mask
	if a == 0 || b == 0 {
		return 0
	}
	return uint64(f.exp[uint64(f.log[a])+uint64(f.log[b])])
}

// Inv returns a^(q-2) via the log table. Inv panics if a == 0.
func (f *GF2e) Inv(a uint64) uint64 {
	a &= f.mask
	if a == 0 {
		panic("gf: inverse of zero in " + f.String())
	}
	return uint64(f.exp[(f.q-1)-uint64(f.log[a])])
}

// String returns "GF(2^e)".
func (f *GF2e) String() string { return fmt.Sprintf("GF(2^%d)", f.e) }

// Prime is the prime field F_p for a prime p < 2^32 (so products fit in a
// uint64 without overflow).
type Prime struct {
	p uint64
}

var _ Field = Prime{}

// NewPrime constructs F_p. It validates that p is a prime below 2^32.
func NewPrime(p uint64) (Prime, error) {
	if p >= 1<<32 {
		return Prime{}, fmt.Errorf("gf: prime %d too large (need p < 2^32)", p)
	}
	if !isPrime(p) {
		return Prime{}, fmt.Errorf("gf: %d is not prime", p)
	}
	return Prime{p: p}, nil
}

// MustPrime is NewPrime but panics on invalid input. It is intended for
// package-level defaults with known-good arguments.
func MustPrime(p uint64) Prime {
	f, err := NewPrime(p)
	if err != nil {
		panic(err)
	}
	return f
}

// Q returns p.
func (f Prime) Q() uint64 { return f.p }

// Bits returns ceil(log2 p).
func (f Prime) Bits() int { return bits.Len64(f.p - 1) }

// Add returns (a + b) mod p.
func (f Prime) Add(a, b uint64) uint64 {
	s := a + b
	if s >= f.p {
		s -= f.p
	}
	return s
}

// Neg returns (-a) mod p.
func (f Prime) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return f.p - a
}

// Mul returns (a * b) mod p.
func (f Prime) Mul(a, b uint64) uint64 { return a * b % f.p }

// Inv returns a^(p-2) mod p by binary exponentiation. Inv panics if a == 0.
func (f Prime) Inv(a uint64) uint64 {
	if a%f.p == 0 {
		panic("gf: inverse of zero in " + f.String())
	}
	return f.pow(a%f.p, f.p-2)
}

func (f Prime) pow(a, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = f.Mul(r, a)
		}
		a = f.Mul(a, a)
	}
	return r
}

// String returns "F_p".
func (f Prime) String() string { return fmt.Sprintf("F_%d", f.p) }

// isPrime is a deterministic Miller-Rabin test valid for all n < 2^32.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// Write n-1 = d * 2^s.
	d, s := n-1, 0
	for d%2 == 0 {
		d /= 2
		s++
	}
	// Bases {2, 7, 61} are sufficient for n < 2^32.
witness:
	for _, a := range []uint64{2, 7, 61} {
		if a%n == 0 {
			continue
		}
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < s-1; i++ {
			x = x * x % n
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

func powMod(a, e, m uint64) uint64 {
	r := uint64(1)
	a %= m
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * a % m
		}
		a = a * a % m
	}
	return r
}
