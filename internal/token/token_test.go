package token

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUIDLayout(t *testing.T) {
	tests := []struct {
		owner, seq int
	}{
		{0, 0}, {1, 0}, {0, 1}, {42, 7}, {1 << 20, 1 << 20},
	}
	for _, tt := range tests {
		u := NewUID(tt.owner, tt.seq)
		if u.Owner() != tt.owner || u.Seq() != tt.seq {
			t.Errorf("UID(%d,%d) round trips to (%d,%d)", tt.owner, tt.seq, u.Owner(), u.Seq())
		}
	}
}

func TestUIDOrderingByOwner(t *testing.T) {
	if NewUID(1, 99) >= NewUID(2, 0) {
		t.Error("UIDs must order primarily by owner")
	}
	if NewUID(1, 1) >= NewUID(1, 2) {
		t.Error("UIDs must order secondarily by seq")
	}
}

func TestTokenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tok := Random(NewUID(3, 0), 100, rng)
	if tok.Bits() != UIDBits+100 {
		t.Errorf("Bits = %d, want %d", tok.Bits(), UIDBits+100)
	}
	if tok.D() != 100 {
		t.Errorf("D = %d, want 100", tok.D())
	}
}

func TestRandomSetDistinctUIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ts := RandomSet(500, 8, rng)
	seen := make(map[UID]bool)
	for _, tok := range ts {
		if seen[tok.UID] {
			t.Fatalf("duplicate UID %v", tok.UID)
		}
		seen[tok.UID] = true
	}
}

// TestRandomUIDsBirthdayBound checks the Section 4.1 WLOG remark: with
// bits >= 4 lg n, random IDs collide essentially never; with tiny ID
// spaces they collide essentially always.
func TestRandomUIDsBirthdayBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	okCount := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		ids, distinct := RandomUIDs(n, 40, rng)
		if len(ids) != n {
			t.Fatal("wrong count")
		}
		if distinct {
			okCount++
		}
	}
	if okCount < trials-1 {
		t.Errorf("40-bit IDs collided in %d of %d trials", trials-okCount, trials)
	}
	collisions := 0
	for i := 0; i < trials; i++ {
		if _, distinct := RandomUIDs(n, 8, rng); !distinct {
			collisions++
		}
	}
	if collisions < trials*9/10 {
		t.Errorf("8-bit IDs for 64 nodes collided only %d of %d trials", collisions, trials)
	}
}

func TestRandomUIDsPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RandomUIDs(4, 0, rand.New(rand.NewSource(1)))
}

func TestSetBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSet()
	a := Random(NewUID(1, 0), 8, rng)
	b := Random(NewUID(2, 0), 8, rng)
	if !s.Add(a) || !s.Add(b) {
		t.Fatal("fresh adds should report true")
	}
	if s.Add(a) {
		t.Error("duplicate add should report false")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Has(a.UID) {
		t.Error("Has(a) = false")
	}
	got, ok := s.Get(b.UID)
	if !ok || !got.Equal(b) {
		t.Error("Get(b) mismatch")
	}
	ts := s.Tokens()
	if len(ts) != 2 || ts[0].UID != a.UID || ts[1].UID != b.UID {
		t.Errorf("Tokens() not sorted by UID: %v", ts)
	}
}

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tests := []struct {
		name  string
		d     Distribution
		wantK int
	}{
		{"one-per-node", OnePerNode(10, 8, rng), 10},
		{"spread", Spread(10, 25, 8, rng), 25},
		{"at-one", AtOne(10, 7, 8, rng), 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if len(tt.d) != 10 {
				t.Fatalf("distribution over %d nodes, want 10", len(tt.d))
			}
			if got := tt.d.K(); got != tt.wantK {
				t.Errorf("K = %d, want %d", got, tt.wantK)
			}
			if all := held(tt.d); all.Len() != tt.wantK {
				t.Errorf("%d distinct tokens held, want %d", all.Len(), tt.wantK)
			}
		})
	}
}

// TestHeldByRejectsFlippedPayload: a set with k tokens is not a set with
// the k tokens — one flipped payload bit, or one missing token, fails.
func TestHeldByRejectsFlippedPayload(t *testing.T) {
	const k = 6
	d := Spread(4, k, 8, rand.New(rand.NewSource(8)))
	set := held(d)
	all := set.Tokens()
	if err := d.HeldBy(set); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
	flipped := NewSet()
	for i, tk := range all {
		if i == k/2 {
			tk.Payload = tk.Payload.Clone()
			tk.Payload.Set(3, !tk.Payload.Bit(3))
		}
		flipped.Add(tk)
	}
	if flipped.Len() != k {
		t.Fatalf("flipped set has %d tokens, want %d", flipped.Len(), k)
	}
	if err := d.HeldBy(flipped); err == nil {
		t.Error("set with a flipped payload bit accepted")
	}
	missing := NewSet()
	for _, tk := range all[1:] {
		missing.Add(tk)
	}
	if err := d.HeldBy(missing); err == nil {
		t.Error("set missing a token accepted")
	}
}

// held is the set of every token d places at some node.
func held(d Distribution) *Set {
	s := NewSet()
	for _, ts := range d {
		for _, tk := range ts {
			s.Add(tk)
		}
	}
	return s
}

func TestAtOnePlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := AtOne(5, 9, 8, rng)
	if len(d[0]) != 9 {
		t.Errorf("node 0 has %d tokens, want 9", len(d[0]))
	}
	for i := 1; i < 5; i++ {
		if len(d[i]) != 0 {
			t.Errorf("node %d has tokens", i)
		}
	}
}

func TestNamedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := NamedDistribution("one-per-node", 5, 5, 8, rng); err != nil {
		t.Error(err)
	}
	if _, err := NamedDistribution("one-per-node", 5, 3, 8, rng); err == nil {
		t.Error("k != n should fail for one-per-node")
	}
	if _, err := NamedDistribution("bogus", 5, 5, 8, rng); err == nil {
		t.Error("unknown distribution should fail")
	}
}

// TestBlockRoundTrip property-tests PackBlock/UnpackBlock.
func TestBlockRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(64)
		capTokens := 1 + rng.Intn(8)
		count := rng.Intn(capTokens + 1)
		ts := RandomSet(count, d, rng)
		blk, err := PackBlock(ts, capTokens, d)
		if err != nil {
			return false
		}
		if blk.Len() != BlockBits(capTokens, d) {
			return false
		}
		got, err := UnpackBlock(blk, capTokens, d)
		if err != nil || len(got) != count {
			return false
		}
		for i := range got {
			if !got[i].Equal(ts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ts := RandomSet(3, 8, rng)
	if _, err := PackBlock(ts, 2, 8); err == nil {
		t.Error("overfull block accepted")
	}
	if _, err := PackBlock(ts[:1], 2, 16); err == nil {
		t.Error("payload size mismatch accepted")
	}
	blk, err := PackBlock(ts, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnpackBlock(blk, 4, 8); err == nil {
		t.Error("wrong capacity accepted on unpack")
	}
}

func TestTokensPerBlock(t *testing.T) {
	tests := []struct {
		maxBits, d, want int
	}{
		{1000, 8, (1000 - CountBits) / (UIDBits + 8)},
		{CountBits, 8, 0},
		{0, 8, 0},
	}
	for _, tt := range tests {
		if got := TokensPerBlock(tt.maxBits, tt.d); got != tt.want {
			t.Errorf("TokensPerBlock(%d,%d) = %d, want %d", tt.maxBits, tt.d, got, tt.want)
		}
	}
}
