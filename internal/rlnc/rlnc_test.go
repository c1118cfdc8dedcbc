package rlnc

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf"
)

func TestEncodeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := gf.RandomBitVec(10, rng.Uint64)
	c := Encode(2, 5, payload)
	if c.Bits() != 15 {
		t.Errorf("Bits = %d, want 15", c.Bits())
	}
	if c.PayloadBits() != 10 {
		t.Errorf("PayloadBits = %d, want 10", c.PayloadBits())
	}
	coeff := c.Coeff()
	for i := 0; i < 5; i++ {
		if coeff.Bit(i) != (i == 2) {
			t.Errorf("coeff bit %d = %v", i, coeff.Bit(i))
		}
	}
	if !c.Payload().Equal(payload) {
		t.Error("payload mismatch")
	}
}

func TestEncodePanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Encode(5, 5, gf.NewBitVec(4))
}

func TestSpanRankAndDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k, d = 6, 12
	payloads := make([]gf.BitVec, k)
	s := NewSpan(k, d)
	for i := range payloads {
		payloads[i] = gf.RandomBitVec(d, rng.Uint64)
		s.Add(Encode(i, k, payloads[i]))
	}
	if s.Rank() != k {
		t.Fatalf("rank = %d, want %d", s.Rank(), k)
	}
	if !s.CanDecode() {
		t.Fatal("cannot decode at full rank")
	}
	got, err := s.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		if !got[i].Equal(payloads[i]) {
			t.Errorf("payload %d mismatch", i)
		}
	}
}

func TestSpanDecodeFailsBelowRank(t *testing.T) {
	s := NewSpan(3, 4)
	s.Add(Encode(0, 3, gf.NewBitVec(4)))
	if s.CanDecode() {
		t.Error("CanDecode with rank 1 of 3")
	}
	if _, err := s.Decode(); err == nil {
		t.Error("Decode should fail below full rank")
	}
}

// TestContradictingPayloadRefused is the one-packet poisoning probe: a
// full span of four source tokens, then token 0 again with one payload
// bit flipped. Its coefficients lie in the span and its payload does
// not, so it must be refused like a dependent packet — no rank growth —
// and every token must still decode to its source.
func TestContradictingPayloadRefused(t *testing.T) {
	const k, d = 4, 64
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpan(k, d)
		payloads := make([]gf.BitVec, k)
		for i := range payloads {
			payloads[i] = gf.RandomBitVec(d, rng.Uint64)
			s.Add(Encode(i, k, payloads[i]))
		}
		bad := Encode(0, k, payloads[0])
		bad.Vec.Flip(k + rng.Intn(d))
		if s.Add(bad) || s.Rank() != k {
			t.Fatalf("seed %d: contradicting packet accepted, rank %d", seed, s.Rank())
		}
		got, err := s.Decode()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range payloads {
			if !got[i].Equal(payloads[i]) {
				t.Fatalf("seed %d: token %d decodes to a payload it was not sent", seed, i)
			}
		}
	}
}

// TestPayloadEqualBelowFullRank: below full rank, a packet repeating
// token 0 with one payload bit flipped is refused on its coefficient
// words, and PayloadEqual reads every unit row in place: true for each
// held token's payload, false for the flipped payload, a token without
// a unit row, or a payload of the wrong length.
func TestPayloadEqualBelowFullRank(t *testing.T) {
	const k, d = 6, 100
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpan(k, d)
		payloads := make([]gf.BitVec, k)
		for i := range payloads {
			payloads[i] = gf.RandomBitVec(d, rng.Uint64)
			if i < k-1 {
				s.Add(Encode(i, k, payloads[i]))
			}
		}
		bad := Encode(0, k, payloads[0])
		bad.Vec.Flip(k + rng.Intn(d))
		if s.Add(bad) || s.Rank() != k-1 {
			t.Fatalf("seed %d: contradicting packet accepted, rank %d", seed, s.Rank())
		}
		for i := 0; i < k-1; i++ {
			if !s.PayloadEqual(i, payloads[i]) {
				t.Fatalf("seed %d: token %d does not equal its own payload", seed, i)
			}
		}
		if s.PayloadEqual(0, bad.Payload()) || s.PayloadEqual(k-1, payloads[k-1]) || s.PayloadEqual(1, payloads[1].Slice(0, d-1)) {
			t.Fatalf("seed %d: PayloadEqual holds for a flipped payload, a missing token or a short payload", seed)
		}
		if allocs := testing.AllocsPerRun(10, func() { s.PayloadEqual(2, payloads[2]) }); allocs != 0 {
			t.Fatalf("PayloadEqual allocated %.1f times", allocs)
		}
	}
}

// TestDecodeFromRandomCombinations is the core coding property: mixing
// random combinations of combinations still decodes.
func TestDecodeFromRandomCombinations(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(10)
		d := 1 + rng.Intn(20)
		payloads := make([]gf.BitVec, k)
		source := NewSpan(k, d)
		for i := range payloads {
			payloads[i] = gf.RandomBitVec(d, rng.Uint64)
			source.Add(Encode(i, k, payloads[i]))
		}
		// A second node hears only random combinations.
		sink := NewSpan(k, d)
		for tries := 0; tries < 100*k && !sink.CanDecode(); tries++ {
			c, ok := source.Combine(rng)
			if !ok {
				return false
			}
			sink.Add(c)
		}
		got, err := sink.Decode()
		if err != nil {
			return false
		}
		for i := range payloads {
			if !got[i].Equal(payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSensingLemma statistically verifies Lemma 5.2: if a node senses mu
// and generates a message, the recipient senses mu with probability at
// least 1 - 1/q = 1/2 over GF(2).
func TestSensingLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k, d = 8, 8
	const trials = 4000
	passed := 0
	for trial := 0; trial < trials; trial++ {
		// Build a random nonempty span and a mu it senses.
		s := NewSpan(k, d)
		for i := 0; i < 1+rng.Intn(k); i++ {
			s.Add(Encode(rng.Intn(k), k, gf.RandomBitVec(d, rng.Uint64)))
		}
		var mu gf.BitVec
		for {
			mu = gf.RandomBitVec(k, rng.Uint64)
			if !mu.IsZero() && s.Senses(mu) {
				break
			}
		}
		c, ok := s.Combine(rng)
		if !ok {
			t.Fatal("empty span")
		}
		if c.Coeff().Dot(mu) == 1 {
			passed++
		}
	}
	// Expect >= 1/2; allow statistical slack.
	if frac := float64(passed) / trials; frac < 0.45 {
		t.Errorf("sensing transfer rate %.3f < 0.45 (lemma predicts >= 0.5)", frac)
	}
}

func TestSensesMonotoneUnderAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k, d = 6, 6
	s := NewSpan(k, d)
	s.Add(Encode(0, k, gf.RandomBitVec(d, rng.Uint64)))
	mu := gf.NewBitVec(k)
	mu.Set(0, true)
	if !s.Senses(mu) {
		t.Fatal("span with e_0 must sense e_0")
	}
	for i := 0; i < 20; i++ {
		s.Add(Encode(rng.Intn(k), k, gf.RandomBitVec(d, rng.Uint64)))
		if !s.Senses(mu) {
			t.Fatal("sensing is monotone; lost after Add")
		}
	}
}

func TestSensesRequiresCoefficientOverlap(t *testing.T) {
	const k, d = 4, 4
	s := NewSpan(k, d)
	s.Add(Encode(1, k, gf.NewBitVec(d)))
	mu := gf.NewBitVec(k)
	mu.Set(0, true) // e_0 is orthogonal to e_1
	if s.Senses(mu) {
		t.Error("span {e_1} must not sense e_0")
	}
}

func TestCombineEmptySpan(t *testing.T) {
	s := NewSpan(3, 3)
	if _, ok := s.Combine(rand.New(rand.NewSource(5))); ok {
		t.Error("empty span produced a combination")
	}
}

func TestSpanAddDimensionMismatchPanics(t *testing.T) {
	s := NewSpan(3, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Add(Encode(0, 4, gf.NewBitVec(2)))
}

func TestPartialDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, d = 4, 8
	s := NewSpan(k, d)
	p0 := gf.RandomBitVec(d, rng.Uint64)
	p1 := gf.RandomBitVec(d, rng.Uint64)
	s.Add(Encode(0, k, p0))
	if got := s.DecodableCount(); got != 1 {
		t.Errorf("DecodableCount = %d, want 1", got)
	}
	got, ok := s.DecodablePayload(0)
	if !ok || !got.Equal(p0) {
		t.Error("token 0 not decodable from its own unit vector")
	}
	if _, ok := s.DecodablePayload(1); ok {
		t.Error("token 1 decodable without information")
	}
	// A mixed vector e1+e2 reveals neither individually.
	mix := Encode(1, k, p1)
	v2 := Encode(2, k, gf.RandomBitVec(d, rng.Uint64))
	mixed := mix.Vec.Clone()
	mixed.Xor(v2.Vec)
	s.Add(Coded{K: k, Vec: mixed})
	if _, ok := s.DecodablePayload(1); ok {
		t.Error("token 1 decodable from a 2-mix")
	}
	// Adding e2 alone untangles the mix: token 1 becomes decodable.
	s.Add(v2)
	got1, ok := s.DecodablePayload(1)
	if !ok || !got1.Equal(p1) {
		t.Error("token 1 not decodable after untangling")
	}
	if got := s.DecodableCount(); got != 3 {
		t.Errorf("DecodableCount = %d, want 3", got)
	}
	if _, ok := s.DecodablePayload(-1); ok {
		t.Error("negative index decodable")
	}
	if _, ok := s.DecodablePayload(k); ok {
		t.Error("out-of-range index decodable")
	}
}

func TestSpanCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewSpan(4, 4)
	s.Add(Encode(0, 4, gf.RandomBitVec(4, rng.Uint64)))
	c := s.Clone()
	c.Add(Encode(1, 4, gf.RandomBitVec(4, rng.Uint64)))
	if s.Rank() != 1 || c.Rank() != 2 {
		t.Error("clone not independent")
	}
}

// TestRowIntoSpansTheSpan: the Rank rows RowInto hands out rebuild the
// span — every one innovative to an empty span, none to the source — at
// ranks on both sides of the 64-row coin chunk.
func TestRowIntoSpansTheSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 7, 64, 100} {
		src := NewSpan(k, 24)
		for i := 0; i < k; i++ {
			src.Add(Encode(i, k, gf.RandomBitVec(24, rng.Uint64)))
		}
		half := NewSpan(k, 24) // a proper subspace, rows not unit vectors
		for i := 0; i < k/2+1; i++ {
			c, _ := src.RandomCombination(rng)
			half.Add(c)
		}
		for _, s := range []*Span{src, half} {
			sink := NewSpan(k, 24)
			var row Coded
			for i := 0; i < s.Rank(); i++ {
				s.RowInto(&row, i)
				if !sink.Add(row) || s.Clone().Add(row) {
					t.Fatalf("k=%d: row %d of %d is not a fresh element of the span", k, i, s.Rank())
				}
			}
			if sink.Rank() != s.Rank() {
				t.Errorf("k=%d: rows rebuild rank %d of %d", k, sink.Rank(), s.Rank())
			}
		}
	}
}

// TestRandomCombinationInSpanAndNonzero checks the cluster recoding
// primitive: every draw is a nonzero vector that lies in the span (so
// adding it to a clone cannot grow the rank).
func TestRandomCombinationInSpanAndNonzero(t *testing.T) {
	const k, d = 8, 16
	rng := rand.New(rand.NewSource(11))
	s := NewSpan(k, d)
	for i := 0; i < 5; i++ {
		s.Add(Encode(i, k, gf.RandomBitVec(d, rng.Uint64)))
	}
	for trial := 0; trial < 200; trial++ {
		c, ok := s.RandomCombination(rng)
		if !ok {
			t.Fatal("nonempty span produced no combination")
		}
		if c.Vec.IsZero() {
			t.Fatal("RandomCombination returned the zero vector")
		}
		if c.K != k || c.Vec.Len() != k+d {
			t.Fatalf("combination dims k=%d len=%d", c.K, c.Vec.Len())
		}
		if s.Clone().Add(c) {
			t.Fatal("combination lies outside the span (rank grew)")
		}
	}
	empty := NewSpan(k, d)
	if _, ok := empty.RandomCombination(rng); ok {
		t.Error("empty span produced a combination")
	}
}

// TestRandomCombinationDecodable feeds a fresh span exclusively from
// RandomCombination packets of a full-rank source span: the receiver
// must reach full rank and decode the original payloads — the
// decodable-compatibility the cluster recoder relies on.
func TestRandomCombinationDecodable(t *testing.T) {
	const k, d = 12, 24
	rng := rand.New(rand.NewSource(12))
	payloads := make([]gf.BitVec, k)
	src := NewSpan(k, d)
	for i := range payloads {
		payloads[i] = gf.RandomBitVec(d, rng.Uint64)
		src.Add(Encode(i, k, payloads[i]))
	}
	dst := NewSpan(k, d)
	for step := 0; !dst.CanDecode(); step++ {
		if step > 64*k {
			t.Fatal("receiver did not reach full rank from random combinations")
		}
		c, ok := src.RandomCombination(rng)
		if !ok {
			t.Fatal("source span empty")
		}
		dst.Add(c)
	}
	got, err := dst.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		if !got[i].Equal(payloads[i]) {
			t.Errorf("payload %d mismatch after recoded transfer", i)
		}
	}
}

// TestSpanResetReuse pins the span lifecycle used by the streaming
// layer: a span that decoded one generation is Reset and reused for the
// next generation's vectors, with no state leaking across generations.
func TestSpanResetReuse(t *testing.T) {
	const k, d = 4, 16
	rng := rand.New(rand.NewSource(11))
	s := NewSpan(k, d)

	fill := func(seed int64) []gf.BitVec {
		prng := rand.New(rand.NewSource(seed))
		payloads := make([]gf.BitVec, k)
		for i := range payloads {
			payloads[i] = gf.RandomBitVec(d, prng.Uint64)
			s.Add(Encode(i, k, payloads[i]))
		}
		return payloads
	}

	first := fill(1)
	if !s.CanDecode() {
		t.Fatal("span not decodable after k unit inserts")
	}
	if s.MemoryBytes() <= 0 {
		t.Errorf("MemoryBytes = %d for a full-rank span", s.MemoryBytes())
	}

	s.Reset()
	if s.Rank() != 0 || s.CanDecode() {
		t.Fatalf("after Reset: rank %d decodable %v", s.Rank(), s.CanDecode())
	}
	if s.K() != k || s.PayloadBits() != d {
		t.Fatalf("Reset changed dimensions to k=%d d=%d", s.K(), s.PayloadBits())
	}
	if _, ok := s.RandomCombination(rng); ok {
		t.Error("empty reset span emitted a combination")
	}

	second := fill(2)
	got, err := s.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Equal(second[i]) {
			t.Errorf("token %d decoded to the wrong payload after reuse", i)
		}
		if got[i].Equal(first[i]) {
			t.Errorf("token %d leaked the previous generation's payload", i)
		}
	}
}

// TestSpanColdFill: a span at gossip-wide's shape (K 32, 128 payload
// bits) fills from rank 0 to k with five allocations — its basis's
// order and lead at their final size, its slab at one row, two, then
// k+1 — and holds k+1 rows, the rank and the reduction scratch row; a
// clone expects as many. gf's TestColdFillAllocations holds the same on
// each subset-xor kernel.
func TestSpanColdFill(t *testing.T) {
	const k, d, runs = 32, 128, 20
	rng := rand.New(rand.NewSource(12))
	msgs := make([]Coded, k)
	for i := range msgs {
		msgs[i] = Encode(i, k, gf.RandomBitVec(d, rng.Uint64))
	}
	spans := make([]*Span, runs+1)
	for i := range spans {
		spans[i] = NewSpan(k, d)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, c := range msgs {
			spans[next].Add(c)
		}
		next++
	})
	if allocs != 5 {
		t.Errorf("a cold fill to rank %d allocated %.1f times, want 5", k, allocs)
	}
	want := (k + 1) * (8*((k+d+63)/64) + 4 + 8)
	if s := spans[0]; s.Rank() != k || s.MemoryBytes() != want {
		t.Fatalf("rank %d and %d bytes after the fill, want %d and %d", s.Rank(), s.MemoryBytes(), k, want)
	}
	c := NewSpan(k, d)
	c.Add(msgs[0])
	c.Add(msgs[1])
	c = c.Clone()
	c.Add(msgs[2])
	if c.MemoryBytes() != want {
		t.Errorf("a clone holds %d bytes after its third row, want the expected %d", c.MemoryBytes(), want)
	}
}

// TestCombineIntoMatchesCombine pins the tentpole equivalence: given
// identical rng states, the in-place CombineInto/RandomCombinationInto
// hot path and the allocating wrappers draw bit-identical combinations,
// and a reused dst never leaks state between draws.
func TestCombineIntoMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(40)
		d := 1 + rng.Intn(80)
		s := NewSpan(k, d)
		adds := rng.Intn(2 * k)
		for i := 0; i < adds; i++ {
			j := rng.Intn(k)
			s.Add(Encode(j, k, gf.RandomBitVec(d, rng.Uint64)))
		}
		seed := rng.Int63()
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		var dst Coded
		// Poison dst with unrelated content to prove Resize clears it.
		dst.Vec = gf.RandomBitVec(k+d+17, rng.Uint64)
		for draw := 0; draw < 50; draw++ {
			want, okW := s.Combine(rngA)
			okG := s.CombineInto(&dst, rngB)
			if okW != okG {
				t.Fatalf("trial %d draw %d: ok %v vs %v", trial, draw, okW, okG)
			}
			if !okW {
				break
			}
			if dst.K != want.K || !dst.Vec.Equal(want.Vec) {
				t.Fatalf("trial %d draw %d: CombineInto diverged from Combine", trial, draw)
			}
		}
		rngA = rand.New(rand.NewSource(seed + 1))
		rngB = rand.New(rand.NewSource(seed + 1))
		for draw := 0; draw < 50; draw++ {
			want, okW := s.RandomCombination(rngA)
			okG := s.RandomCombinationInto(&dst, rngB)
			if okW != okG {
				t.Fatalf("trial %d draw %d: nonzero ok %v vs %v", trial, draw, okW, okG)
			}
			if !okW {
				break
			}
			if dst.Vec.IsZero() {
				t.Fatalf("trial %d draw %d: RandomCombinationInto produced zero", trial, draw)
			}
			if dst.K != want.K || !dst.Vec.Equal(want.Vec) {
				t.Fatalf("trial %d draw %d: RandomCombinationInto diverged", trial, draw)
			}
		}
	}
}

// TestCombineIntoSteadyStateZeroAlloc pins the zero-allocation claim
// for the emission hot path: repeated draws into a warmed dst allocate
// nothing.
func TestCombineIntoSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const k, d = 64, 192
	s := NewSpan(k, d)
	for i := 0; i < k; i++ {
		s.Add(Encode(i, k, gf.RandomBitVec(d, rng.Uint64)))
	}
	var dst Coded
	s.RandomCombinationInto(&dst, rng) // warm dst
	allocs := testing.AllocsPerRun(100, func() {
		s.RandomCombinationInto(&dst, rng)
	})
	if allocs != 0 {
		t.Fatalf("RandomCombinationInto allocated %.1f times per draw, want 0", allocs)
	}
}

// TestCombineIntoPinnedBits pins the bits CombineInto emits, and the
// coins it leaves in the rng, at the two shapes the repo benchmark runs
// (gossip-deep, gossip-wide): the hashes are what the row-at-a-time loop
// before the subset-xor kernel produced for the same seeds. A span is
// filled from recoded gossip, so its rows sit in shuffled slab order,
// and is drawn from at a partial rank (not a multiple of 64) and at
// full rank; the hash covers every stored row as well, so the RREF the
// inserts leave is pinned with the packets. If this moves, every golden
// transcript moves with it.
func TestCombineIntoPinnedBits(t *testing.T) {
	for _, tc := range []struct {
		k, d int
		want uint64
	}{
		{768, 1088, 0xaa8c37bca482a78f},
		{32, 128, 0x528fb865b3f0b0e5},
	} {
		rng := rand.New(rand.NewSource(int64(tc.k)))
		src := NewSpan(tc.k, tc.d)
		for i := 0; i < tc.k; i++ {
			src.Add(Encode(i, tc.k, gf.RandomBitVec(tc.d, rng.Uint64)))
		}
		h := fnv.New64a()
		s := NewSpan(tc.k, tc.d)
		var c, dst Coded
		draw := func() {
			for i := 0; i < 40; i++ {
				if !s.CombineInto(&dst, rng) {
					t.Fatalf("k=%d: empty span at rank %d", tc.k, s.Rank())
				}
				h.Write(dst.Vec.Bytes())
			}
		}
		for s.Rank() < tc.k {
			src.RandomCombinationInto(&c, rng)
			if s.Add(c) && s.Rank() == tc.k*5/8+3 {
				draw()
			}
		}
		draw()
		for i := 0; i < s.Rank(); i++ {
			h.Write(s.mat.Row(i).Bytes())
		}
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], rng.Uint64())
		h.Write(tail[:])
		if got := h.Sum64(); got != tc.want {
			t.Errorf("k=%d d=%d: hash %#x, want %#x", tc.k, tc.d, got, tc.want)
		}
	}
}
