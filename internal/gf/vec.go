package gf

import "fmt"

// Vec is a dense vector over an arbitrary Field, one uint64 element per
// coordinate. It is the general-q counterpart to BitVec, used by the
// derandomization experiments where large fields are required.
type Vec []uint64

// NewVec returns the zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns an independent copy.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// AddScaled adds s*u into v in place: v[i] += s*u[i].
func (v Vec) AddScaled(f Field, s uint64, u Vec) {
	if len(v) != len(u) {
		panic(fmt.Sprintf("gf: Vec length mismatch %d vs %d", len(v), len(u)))
	}
	if s == 0 {
		return
	}
	for i, ui := range u {
		v[i] = f.Add(v[i], f.Mul(s, ui))
	}
}

// Scale multiplies v by s in place.
func (v Vec) Scale(f Field, s uint64) {
	for i := range v {
		v[i] = f.Mul(v[i], s)
	}
}

// Dot returns the inner product of v and u.
func (v Vec) Dot(f Field, u Vec) uint64 {
	if len(v) != len(u) {
		panic(fmt.Sprintf("gf: Vec length mismatch %d vs %d", len(v), len(u)))
	}
	var acc uint64
	for i, ui := range u {
		acc = f.Add(acc, f.Mul(v[i], ui))
	}
	return acc
}

// Leading returns the index of the first nonzero coordinate, or -1.
func (v Vec) Leading() int {
	for i, x := range v {
		if x != 0 {
			return i
		}
	}
	return -1
}

// RandomVec returns a vector of length n with coordinates drawn uniformly
// from the field using the given random word source.
func RandomVec(f Field, n int, rnd func() uint64) Vec {
	v := NewVec(n)
	q := f.Q()
	for i := range v {
		v[i] = uniformMod(q, rnd)
	}
	return v
}

// uniformMod draws a uniform value in [0, q) by rejection sampling, which
// avoids modulo bias for non-power-of-two q.
func uniformMod(q uint64, rnd func() uint64) uint64 {
	if q&(q-1) == 0 {
		return rnd() & (q - 1)
	}
	limit := (^uint64(0) / q) * q
	for {
		x := rnd()
		if x < limit {
			return x % q
		}
	}
}
