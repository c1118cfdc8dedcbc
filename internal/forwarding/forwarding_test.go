package forwarding

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/token"
)

func TestTokensPerMessage(t *testing.T) {
	if _, err := TokensPerMessage(10, 8); err == nil {
		t.Error("tiny budget should fail")
	}
	c, err := TokensPerMessage(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1000 - token.CountBits) / (token.UIDBits + 8); c != want {
		t.Errorf("c = %d, want %d", c, want)
	}
}

func TestTokensMsgBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := TokensMsg{Tokens: token.RandomSet(3, 10, rng)}
	want := token.CountBits + 3*(token.UIDBits+10)
	if m.Bits() != want {
		t.Errorf("Bits = %d, want %d", m.Bits(), want)
	}
}

func TestValuesMsgBits(t *testing.T) {
	m := ValuesMsg{Width: 32, Values: []uint64{1, 2}}
	if got, want := m.Bits(), token.CountBits+64; got != want {
		t.Errorf("Bits = %d, want %d", got, want)
	}
}

// TestPipelinedFloodDisseminates runs the Theorem 2.1 baseline under
// several adversaries and distributions.
func TestPipelinedFloodDisseminates(t *testing.T) {
	const n, d = 12, 8
	b := 2 * (token.UIDBits + d + token.CountBits) // two tokens per message
	tests := []struct {
		name string
		dist token.Distribution
		k    int
		adv  dynnet.Adversary
	}{
		{"one-per-node/random", token.OnePerNode(n, d, rand.New(rand.NewSource(1))), n, adversary.NewRandomConnected(n, 4, 1)},
		{"one-per-node/rotating", token.OnePerNode(n, d, rand.New(rand.NewSource(2))), n, adversary.NewRotatingPath(n, 2)},
		{"spread/random", token.Spread(n, 7, d, rand.New(rand.NewSource(3))), 7, adversary.NewRandomConnected(n, 4, 3)},
		{"at-one/path", token.AtOne(n, 5, d, rand.New(rand.NewSource(4))), 5, adversary.NewStatic(graph.Path(n))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rounds, err := RunPipelinedFlood(tt.dist, tt.k, b, d, tt.adv)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := TokensPerMessage(b, d)
			wantRounds := (tt.k + c - 1) / c * n
			if rounds != wantRounds {
				t.Errorf("rounds = %d, want %d", rounds, wantRounds)
			}
		})
	}
}

// TestPipelinedFloodScalesWithBudget checks the Theorem 2.1 linear-in-b
// behaviour: doubling b halves the round count.
func TestPipelinedFloodScalesWithBudget(t *testing.T) {
	const n, d, k = 10, 8, 10
	rng := rand.New(rand.NewSource(5))
	dist := token.OnePerNode(n, d, rng)
	b1 := 2 * (token.UIDBits + d + token.CountBits)
	b2 := 2 * b1
	r1, err := RunPipelinedFlood(dist, k, b1, d, adversary.NewRandomConnected(n, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunPipelinedFlood(dist, k, b2, d, adversary.NewRandomConnected(n, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if r2 >= r1 {
		t.Errorf("rounds did not drop with larger budget: %d -> %d", r1, r2)
	}
}

func TestPipelinedFloodBudgetTooSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dist := token.OnePerNode(4, 64, rng)
	_, err := RunPipelinedFlood(dist, 4, 32, 64, adversary.NewRandomConnected(4, 0, 1))
	if err == nil {
		t.Error("expected error for b < d + log n")
	}
}

func TestMaxFloodAgreesOnPath(t *testing.T) {
	const n = 9
	vals := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5}
	s := dynnet.NewSession(n, adversary.NewStatic(graph.Path(n)), dynnet.Config{BitBudget: 64 + token.CountBits})
	best, err := FloodMax(s, vals, 64, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range best {
		if b != 9 {
			t.Errorf("node %d best = %d, want 9", i, b)
		}
	}
	// One width-bit value a node a round, whatever the values.
	if m := s.Metrics(); m.Messages != n*n || m.Bits != int64(n*n*(64+token.CountBits)) {
		t.Errorf("messages = %d, bits = %d, want %d and %d", m.Messages, m.Bits, n*n, n*n*(64+token.CountBits))
	}
}

func TestSmallestFloodConvergesToGlobalSmallest(t *testing.T) {
	const n, keep = 10, 3
	own := make([][]uint64, n)
	for i := range own {
		own[i] = []uint64{uint64(100 - i)}
	}
	s := dynnet.NewSession(n, adversary.NewRotatingPath(n, 7), dynnet.Config{})
	kept, err := flood(s, own, keep, keep, 32, n)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{91, 92, 93}
	for i, got := range kept {
		if !slices.Equal(got, want) {
			t.Errorf("node %d smallest = %v, want %v", i, got, want)
		}
	}
}

// TestValueNodeKeepsLeastDistinct holds the node's kept list to a model:
// the keep least distinct values of everything it heard, ascending.
func TestValueNodeKeepsLeastDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		keep := 1 + rng.Intn(6)
		nd := &valueNode{keep: keep, perMsg: keep, width: 8}
		heard := map[uint64]bool{}
		for range rng.Intn(40) {
			v := uint64(rng.Intn(20))
			nd.add(v)
			heard[v] = true
		}
		want := slices.Sorted(maps.Keys(heard))
		want = want[:min(keep, len(want))]
		if !slices.Equal(nd.known, want) {
			t.Fatalf("keep %d: kept %v, want %v", keep, nd.known, want)
		}
	}
}

func TestPackCountID(t *testing.T) {
	const n = 16
	// Higher count wins.
	if PackCountID(3, 10, n) <= PackCountID(2, 0, n) {
		t.Error("higher count must dominate")
	}
	// Equal counts: lower ID wins.
	if PackCountID(3, 2, n) <= PackCountID(3, 7, n) {
		t.Error("lower ID must win ties")
	}
	c, id := UnpackCountID(PackCountID(5, 11, n), n)
	if c != 5 || id != 11 {
		t.Errorf("round trip = (%d,%d), want (5,11)", c, id)
	}
}

// TestRandomForwardIdentifiesAgreedMax runs the Section 7 primitive and
// checks the identified node really has the maximum count.
func TestRandomForwardIdentifiesAgreedMax(t *testing.T) {
	const n, k, d = 10, 10, 8
	rng := rand.New(rand.NewSource(8))
	dist := token.OnePerNode(n, d, rng)
	sets := make([]*token.Set, n)
	rngs := make([]*rand.Rand, n)
	for i := range sets {
		sets[i] = token.NewSet()
		for _, tk := range dist[i] {
			sets[i].Add(tk)
		}
		rngs[i] = rand.New(rand.NewSource(int64(i + 100)))
	}
	s := dynnet.NewSession(n, adversary.NewRandomConnected(n, 4, 9), dynnet.Config{})
	res, err := RandomForward(s, sets, nil, 2, 3*n, rngs)
	if err != nil {
		t.Fatal(err)
	}
	maxCount := 0
	for _, set := range sets {
		if set.Len() > maxCount {
			maxCount = set.Len()
		}
	}
	if res.Count != maxCount {
		t.Errorf("identified count %d, true max %d", res.Count, maxCount)
	}
	if sets[res.Identified].Len() != maxCount {
		t.Error("identified node does not hold the max")
	}
}

// TestRandomForwardGatheringLowerBound is a lightweight Lemma 7.2 check:
// with k tokens spread one per node, after O(n) rounds of random-forward
// the max count reaches either k or sqrt(bk/d) = sqrt(ck).
func TestRandomForwardGatheringLowerBound(t *testing.T) {
	const n, d = 24, 8
	const c = 2 // tokens per message => b/d ~ 2
	rng := rand.New(rand.NewSource(10))
	dist := token.OnePerNode(n, d, rng)
	sets := make([]*token.Set, n)
	rngs := make([]*rand.Rand, n)
	for i := range sets {
		sets[i] = token.NewSet()
		for _, tk := range dist[i] {
			sets[i].Add(tk)
		}
		rngs[i] = rand.New(rand.NewSource(int64(i + 7)))
	}
	s := dynnet.NewSession(n, adversary.NewRandomConnected(n, n, 11), dynnet.Config{})
	res, err := RandomForward(s, sets, nil, c, 4*n, rngs)
	if err != nil {
		t.Fatal(err)
	}
	// M = sqrt(c*k) with k = n.
	want := 6 // floor(sqrt(2*24)) = 6
	if res.Count < want {
		t.Errorf("gathered %d tokens, Lemma 7.2 predicts >= %d", res.Count, want)
	}
}

func TestRandomForwardEligibleFilter(t *testing.T) {
	const n, d = 6, 8
	rng := rand.New(rand.NewSource(12))
	dist := token.OnePerNode(n, d, rng)
	sets := make([]*token.Set, n)
	rngs := make([]*rand.Rand, n)
	for i := range sets {
		sets[i] = token.NewSet()
		for _, tk := range dist[i] {
			sets[i].Add(tk)
		}
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	// Only tokens owned by node 0 are eligible; everyone else's never move.
	eligible := func(u token.UID) bool { return u.Owner() == 0 }
	s := dynnet.NewSession(n, adversary.NewRandomConnected(n, 2, 13), dynnet.Config{})
	if _, err := RandomForward(s, sets, eligible, 2, 2*n, rngs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		for _, tk := range sets[i].Tokens() {
			if tk.UID.Owner() != 0 && tk.UID.Owner() != i {
				t.Errorf("ineligible token %v moved to node %d", tk.UID, i)
			}
		}
	}
}

func TestPipelinedFloodRespectsBudgetStrictly(t *testing.T) {
	// The engine itself enforces the budget: a run whose message size is
	// computed correctly never errors.
	const n, d = 8, 16
	rng := rand.New(rand.NewSource(14))
	dist := token.OnePerNode(n, d, rng)
	b := token.CountBits + 3*(token.UIDBits+d)
	_, err := RunPipelinedFlood(dist, n, b, d, adversary.NewRandomConnected(n, 3, 15))
	if err != nil && errors.Is(err, dynnet.ErrBudgetExceeded) {
		t.Fatalf("budget violated by correctly-sized messages: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
}
