package stable

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/graph"
	"repro/internal/rlnc"
	"repro/internal/token"
)

func TestChunksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, total := range []int{1, 7, 8, 9, 100, 255, 256} {
		for _, cb := range []int{1, 3, 8, 64, 300} {
			v := gf.RandomBitVec(total, rng.Uint64)
			chunks := splitChunks(v, cb)
			if len(chunks) != numChunks(total, cb) {
				t.Fatalf("total=%d cb=%d: %d chunks, want %d", total, cb, len(chunks), numChunks(total, cb))
			}
			got, err := joinChunks(chunks, total)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(v) {
				t.Fatalf("total=%d cb=%d: round trip mismatch", total, cb)
			}
		}
	}
}

func TestJoinChunksErrors(t *testing.T) {
	chunks := splitChunks(gf.NewBitVec(10), 4)
	if _, err := joinChunks(chunks, 8); err == nil {
		t.Error("overlong chunks accepted")
	}
	if _, err := joinChunks(chunks[:1], 10); err == nil {
		t.Error("short chunks accepted")
	}
}

// TestBuildPatchesInvariants runs the distributed patch protocol on
// random stable graphs and validates the Section 8.1 invariants against
// the true topology.
func TestBuildPatchesInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		d := 1 + rng.Intn(3)
		g := graph.RandomConnected(n, rng.Intn(n), rng)
		s := dynnet.NewSession(n, adversary.NewStatic(g), dynnet.Config{})
		p, err := BuildPatches(s, d, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(g); err != nil {
			t.Errorf("seed %d (n=%d d=%d): %v", seed, n, d, err)
		}
		if got := s.Metrics().Rounds; got <= 0 {
			t.Errorf("seed %d: patch building consumed no rounds", seed)
		}
	}
}

// TestBuildPatchesStructuredTopologies runs the distributed patching on
// grid and hypercube topologies, whose regular structure exercises the
// tie-breaking paths differently from random graphs.
func TestBuildPatchesStructuredTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tests := []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"grid6x6", graph.Grid(6, 6), 2},
		{"hypercube4", graph.Hypercube(4), 1},
		{"cycle30", graph.Cycle(30), 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := dynnet.NewSession(tt.g.N(), adversary.NewStatic(tt.g), dynnet.Config{})
			p, err := BuildPatches(s, tt.d, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(tt.g); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBuildPatchesPathD1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 12
	s := dynnet.NewSession(n, adversary.NewStatic(graph.Path(n)), dynnet.Config{})
	p, err := BuildPatches(s, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(graph.Path(n)); err != nil {
		t.Fatal(err)
	}
	// On a path with D=1, an MIS of G has at least n/3 leaders.
	if len(p.Leaders) < n/3 {
		t.Errorf("%d leaders, want >= %d", len(p.Leaders), n/3)
	}
}

// TestMetaRoundSpreadsAcrossPatches checks one share-pass-share cycle
// moves information from a patch holding all blocks to its neighbours.
func TestMetaRoundSpreadsAcrossPatches(t *testing.T) {
	const n = 16
	const blocks, payload = 4, 16
	rng := rand.New(rand.NewSource(5))
	g := graph.Path(n)
	s := dynnet.NewSession(n, adversary.NewStatic(g), dynnet.Config{})
	patches, err := BuildPatches(s, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	spans := make([]*rlnc.Span, n)
	rngs := make([]*rand.Rand, n)
	for i := range spans {
		spans[i] = rlnc.NewSpan(blocks, payload)
		rngs[i] = rand.New(rand.NewSource(int64(i + 10)))
	}
	for j := 0; j < blocks; j++ {
		spans[0].Add(rlnc.Encode(j, blocks, gf.RandomBitVec(payload, rng.Uint64)))
	}
	for meta := 0; meta < 30; meta++ {
		if err := metaRound(s, patches, spans, rngs, 64, true); err != nil {
			t.Fatal(err)
		}
		all := true
		for _, sp := range spans {
			if !sp.CanDecode() {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	for i, sp := range spans {
		if !sp.CanDecode() {
			t.Errorf("node %d rank %d of %d after 30 meta-rounds", i, sp.Rank(), blocks)
		}
	}
}

func TestPlanGeometry(t *testing.T) {
	geo, err := PlanGeometry(32, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	if geo.ChunkBits != 512-chunkHeaderBits {
		t.Errorf("chunk bits = %d", geo.ChunkBits)
	}
	if geo.MetaCost() > 128/2+4*geo.D {
		t.Errorf("meta cost %d exceeds half window", geo.MetaCost())
	}
	if geo.VectorBits() != geo.Blocks+geo.Payload {
		t.Error("vector bits inconsistent")
	}
	if _, err := PlanGeometry(32, 128, 128); err == nil {
		t.Error("budget smaller than header accepted")
	}
	if _, err := PlanGeometry(32, 512, 4); err == nil {
		t.Error("tiny window accepted")
	}
}

// TestPlanGeometryCapacityQuadraticInT is the Lemma 8.1 throughput
// shape: doubling T roughly quadruples Blocks*Payload.
func TestPlanGeometryCapacityQuadraticInT(t *testing.T) {
	const n, b = 64, 512
	g1, err := PlanGeometry(n, b, 256)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := PlanGeometry(n, b, 512)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(g2.Capacity()) / float64(g1.Capacity())
	if ratio < 3.0 || ratio > 5.5 {
		t.Errorf("capacity ratio for 2x T = %.2f, want ~4", ratio)
	}
}

// TestBroadcastLemma81 runs the full windowed T-stable broadcast with a
// dynamic (per-window random) topology and checks all nodes decode.
func TestBroadcastLemma81(t *testing.T) {
	const n, b, T = 12, 512, 192
	geo, err := PlanGeometry(n, b, T)
	if err != nil {
		t.Fatal(err)
	}
	geo = geo.Shrink(768) // keep decoding cheap at test scale
	rng := rand.New(rand.NewSource(7))
	payloads := make([]gf.BitVec, geo.Blocks)
	initial := make([][]rlnc.Coded, n)
	for j := range payloads {
		payloads[j] = gf.RandomBitVec(geo.Payload, rng.Uint64)
		owner := j % n
		initial[owner] = append(initial[owner], rlnc.Encode(j, geo.Blocks, payloads[j]))
	}
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i + 50)))
	}
	tadv := adversary.NewTStable(adversary.NewRandomConnected(n, n, 8), T)
	s := dynnet.NewSession(n, tadv, dynnet.Config{BitBudget: b})
	decoded, err := Broadcast(s, tadv, geo, initial, rngs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range decoded {
		for j := range payloads {
			if !decoded[i][j].Equal(payloads[j]) {
				t.Fatalf("node %d block %d mismatch", i, j)
			}
		}
	}
	if s.Metrics().MaxMessageBits > b {
		t.Errorf("message of %d bits exceeded budget %d", s.Metrics().MaxMessageBits, b)
	}
}

// TestRunFloodBaseline checks the T-stable forwarding baseline
// disseminates and benefits from stability.
func TestRunFloodBaseline(t *testing.T) {
	const n, d, k = 16, 8, 16
	b := 2 * (token.UIDBits + d + token.CountBits)
	mk := func(seed int64) token.Distribution {
		return token.OnePerNode(n, d, rand.New(rand.NewSource(seed)))
	}
	r1, err := RunFlood(mk(1), k, b, d, 1, adversary.NewTStable(adversary.NewRotatingPath(n, 2), 1))
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := RunFlood(mk(1), k, b, d, 64, adversary.NewTStable(adversary.NewRotatingPath(n, 2), 64))
	if err != nil {
		t.Fatal(err)
	}
	if rBig > r1 {
		t.Errorf("stability slowed the baseline: T=1 %d rounds, T=64 %d rounds", r1, rBig)
	}
}

func TestRunFloodTooSmallBudget(t *testing.T) {
	dist := token.OnePerNode(4, 64, rand.New(rand.NewSource(4)))
	if _, err := RunFlood(dist, 4, 16, 64, 1, adversary.NewRotatingPath(4, 1)); err == nil {
		t.Error("tiny budget accepted")
	}
}

// TestAblationSecondShare records the DESIGN.md ablation: dropping the
// second share step of the meta-round still decodes everywhere (the next
// meta-round's first share does its distribution job) and costs fewer
// total rounds — the paper's three-step form exists for the analysis,
// not for per-round progress.
func TestAblationSecondShare(t *testing.T) {
	g := graph.Path(24)
	const d, blocks, payload, chunkBits = 2, 4, 16, 64
	with, err := AblationMetaRounds(g, d, blocks, payload, chunkBits, true, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	without, err := AblationMetaRounds(g, d, blocks, payload, chunkBits, false, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("with second share: %d rounds; without: %d rounds", with, without)
	// The fused pipeline must not be drastically worse; empirically it
	// is ~30% cheaper.
	if without > 2*with {
		t.Errorf("share-pass pipeline unexpectedly slow: with=%d without=%d", with, without)
	}
}

func TestGeometryShrink(t *testing.T) {
	geo, err := PlanGeometry(64, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	small := geo.Shrink(500)
	if small.VectorBits() > geo.VectorBits() && small.Chunks != 1 {
		t.Errorf("shrink grew the vector: %d -> %d", geo.VectorBits(), small.VectorBits())
	}
	if small.MetaCost() > geo.MetaCost() {
		t.Error("shrink increased meta cost")
	}
	if geo.Shrink(1<<30) != geo {
		t.Error("shrink with huge cap changed geometry")
	}
	one := geo.Shrink(0)
	if one.Chunks != 1 {
		t.Errorf("shrink to zero should clamp to one chunk, got %d", one.Chunks)
	}
}
