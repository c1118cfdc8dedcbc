package rlnc

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
)

func TestGSpanDecodeAcrossFields(t *testing.T) {
	for _, f := range []gf.Field{gf.GF2{}, gf.MustGF2e(4), gf.MustGF2e(8), gf.MustPrime(257)} {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			const k, pe = 5, 7
			payloads := make([]gf.Vec, k)
			source := NewGSpan(f, k, pe)
			for i := range payloads {
				payloads[i] = gf.RandomVec(f, pe, rng.Uint64)
				source.Add(GEncode(f, i, k, payloads[i]))
			}
			sink := NewGSpan(f, k, pe)
			for tries := 0; tries < 500 && !sink.CanDecode(); tries++ {
				c, ok := source.Combine(rng)
				if !ok {
					t.Fatal("empty source")
				}
				sink.Add(c)
			}
			got, err := sink.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for i := range payloads {
				if !got[i].Equal(payloads[i]) {
					t.Errorf("payload %d mismatch", i)
				}
			}
		})
	}
}

func TestGCodedBits(t *testing.T) {
	f := gf.MustGF2e(8)
	c := GEncode(f, 0, 4, gf.NewVec(6))
	if got, want := c.Bits(), (4+6)*8; got != want {
		t.Errorf("Bits = %d, want %d", got, want)
	}
	if c.PayloadElems() != 6 {
		t.Errorf("PayloadElems = %d, want 6", c.PayloadElems())
	}
}

// TestGSensingLemmaLargeField verifies the 1 - 1/q bound tightens with
// field size: over F_257 the transfer probability should be near 1.
func TestGSensingLemmaLargeField(t *testing.T) {
	f := gf.MustPrime(257)
	rng := rand.New(rand.NewSource(2))
	const k, pe = 6, 4
	const trials = 2000
	passed := 0
	for trial := 0; trial < trials; trial++ {
		s := NewGSpan(f, k, pe)
		for i := 0; i < 1+rng.Intn(k); i++ {
			s.Add(GEncode(f, rng.Intn(k), k, gf.RandomVec(f, pe, rng.Uint64)))
		}
		var mu gf.Vec
		for {
			mu = gf.RandomVec(f, k, rng.Uint64)
			if !mu.IsZero() && s.Senses(mu) {
				break
			}
		}
		c, ok := s.Combine(rng)
		if !ok {
			t.Fatal("empty span")
		}
		if gf.Vec(c.Vec[:k]).Dot(f, mu) != 0 {
			passed++
		}
	}
	if frac := float64(passed) / trials; frac < 0.98 {
		t.Errorf("sensing transfer rate %.3f < 0.98 over F_257 (lemma predicts 1 - 1/257)", frac)
	}
}

// TestGBroadcastEndToEnd runs the general-field indexed broadcast on a
// dynamic network.
func TestGBroadcastEndToEnd(t *testing.T) {
	f := gf.MustGF2e(4)
	const n, pe = 10, 4
	rng := rand.New(rand.NewSource(3))
	payloads := make([]gf.Vec, n)
	impls := make([]*GBroadcastNode, n)
	for i := 0; i < n; i++ {
		payloads[i] = gf.RandomVec(f, pe, rng.Uint64)
		nrng := rand.New(rand.NewSource(int64(100 + i)))
		impls[i] = NewGBroadcastNode(f, n, pe, []GCoded{GEncode(f, i, n, payloads[i])}, nrng)
	}
	s := dynnet.NewSession(n, adversary.NewRandomConnected(n, n/2, 4), dynnet.Config{})
	if err := dynnet.Run(s, impls, DefaultSchedule(n, n)); err != nil {
		t.Fatal(err)
	}
	for i, impl := range impls {
		got, err := impl.Span().Decode()
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		for j := range payloads {
			if !got[j].Equal(payloads[j]) {
				t.Fatalf("node %d token %d mismatch", i, j)
			}
		}
	}
}

// TestScheduledBroadcastDeterministic checks that two runs with the same
// coefficient schedule and adversary produce identical spans — the
// determinism Corollary 6.2 relies on.
func TestScheduledBroadcastDeterministic(t *testing.T) {
	f := gf.MustPrime(65537)
	const n, pe = 8, 3
	coeff := func(node int) func(round, row int) uint64 {
		return func(round, row int) uint64 {
			// A fixed splitmix-style hash: the "advice matrix".
			x := uint64(node)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9 + uint64(row)*0x94d049bb133111eb
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			return x % f.Q()
		}
	}
	run := func() []int {
		rng := rand.New(rand.NewSource(5))
		impls := make([]*GBroadcastNode, n)
		for i := 0; i < n; i++ {
			payload := gf.RandomVec(f, pe, rng.Uint64)
			impls[i] = NewScheduledBroadcastNode(f, n, pe, []GCoded{GEncode(f, i, n, payload)}, coeff(i))
		}
		s := dynnet.NewSession(n, adversary.NewRandomConnected(n, 2, 9), dynnet.Config{})
		if err := dynnet.Run(s, impls, DefaultSchedule(n, n)); err != nil {
			t.Fatal(err)
		}
		ranks := make([]int, n)
		for i, impl := range impls {
			ranks[i] = impl.Span().Rank()
		}
		return ranks
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("deterministic runs diverged at node %d: %d vs %d", i, r1[i], r2[i])
		}
		if r1[i] != n {
			t.Errorf("node %d rank %d, want %d", i, r1[i], n)
		}
	}
}
