package stable

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
)

// Geometry fixes the Section 8.2 parameters for a T-stable broadcast:
// how large the patches are, how coded vectors are chunked into b-bit
// messages, and how the vector is split between block coefficients and
// block payload. The paper's throughput claim is that Blocks*Payload —
// the information delivered per broadcast — scales as (bT)^2.
type Geometry struct {
	// D is the patch radius (the paper's D = Theta(T / log n)).
	D int
	// ChunkBits is the vector piece carried per message.
	ChunkBits int
	// Chunks is the number of pieces per coded vector.
	Chunks int
	// Blocks is the coefficient dimension (number of blocks coded).
	Blocks int
	// Payload is the per-block size in bits.
	Payload int
	// BuildBudget is the rounds reserved per window for patch building.
	BuildBudget int
}

// VectorBits returns the coded vector length Blocks + Payload.
func (g Geometry) VectorBits() int { return g.Blocks + g.Payload }

// MetaCost returns the rounds one share-pass-share meta-round consumes:
// two share steps of 2(C+D) rounds around one pass step of C rounds.
func (g Geometry) MetaCost() int { return 5*g.Chunks + 4*g.D }

// Capacity returns the total bits delivered by one full broadcast.
func (g Geometry) Capacity() int { return g.Blocks * g.Payload }

// PlanGeometry derives a Geometry for an n-node network with b-bit
// messages and T-stable windows. It reserves half of each window for
// distributed patch building and spends the rest on meta-rounds,
// scaling the coded vector so one meta-round fits. It errors when T is
// too small for even a single-chunk meta-round, the regime in which
// Section 8's machinery cannot help.
func PlanGeometry(n, b, t int) (Geometry, error) {
	chunkBits := b - chunkHeaderBits
	if chunkBits < 8 {
		return Geometry{}, fmt.Errorf("stable: budget b=%d leaves no room for chunk headers (%d bits)", b, chunkHeaderBits)
	}
	log2n := 1
	for m := n; m > 2; m /= 2 {
		log2n++
	}
	d := t / (16 * log2n)
	if d < 1 {
		d = 1
	}
	build := t / 2
	c := (t - build - 4*d) / 5
	if c < 1 {
		return Geometry{}, fmt.Errorf("stable: window T=%d too small for patch radius D=%d (needs %d rounds per meta-round)", t, d, 5+4*d+build)
	}
	l := c * chunkBits
	return Geometry{
		D:           d,
		ChunkBits:   chunkBits,
		Chunks:      c,
		Blocks:      l / 2,
		Payload:     l - l/2,
		BuildBudget: build,
	}, nil
}

// Shrink returns a geometry whose coded vector holds at most
// maxVectorBits bits (but at least one chunk). Workloads smaller than
// the window's full capacity use it to keep meta-rounds and decoding
// proportional to the data actually shipped; window feasibility is
// preserved because the meta-round only gets cheaper.
func (g Geometry) Shrink(maxVectorBits int) Geometry {
	c := maxVectorBits / g.ChunkBits
	if c < 1 {
		c = 1
	}
	if c >= g.Chunks {
		return g
	}
	l := c * g.ChunkBits
	g.Chunks = c
	g.Blocks = l / 2
	g.Payload = l - l/2
	return g
}

// ScaledGeometry is the geometry the throughput measurements (E5,
// examples/stable) run one broadcast with: the paper's regime bT^2 <= n
// is unreachable at laptop n, so the coded vector is scaled as
// Blocks = T/8, Payload = 3T/8 — both ~T, product ~T^2, the proportions
// the proof of Lemma 8.1 uses — with the block count held under the n/D
// meta-round budget and half of each window left to patch building.
func ScaledGeometry(b, t int) Geometry {
	chunkBits := b - chunkHeaderBits
	blocks, payload := t/8, 3*t/8
	return Geometry{
		D:           max(1, t/96),
		ChunkBits:   chunkBits,
		Chunks:      numChunks(blocks+payload, chunkBits),
		Blocks:      blocks,
		Payload:     payload,
		BuildBudget: t / 2,
	}
}

// idleNode says nothing and hears nothing; a phase of them burns rounds
// to align to a window boundary.
type idleNode struct{}

func (idleNode) Send(int) dynnet.Message       { return nil }
func (idleNode) Receive(int, []dynnet.Message) {}

// Broadcast runs the Lemma 8.1 T-stable indexed broadcast over an
// existing session driven by a T-stable adversary: node i injects the
// coded vectors initial[i] (Blocks coefficients, Payload bits each);
// windows alternate patch building and share-pass-share meta-rounds
// until every node can decode all blocks. It returns each node's
// decoded payloads.
func Broadcast(
	s *dynnet.Session,
	tadv *adversary.TStable,
	geo Geometry,
	initial [][]rlnc.Coded,
	rngs []*rand.Rand,
) ([][]gf.BitVec, error) {
	n := s.N()
	if len(initial) != n {
		return nil, fmt.Errorf("stable: %d initial vector sets for %d nodes", len(initial), n)
	}
	t := tadv.T()
	spans := make([]*rlnc.Span, n)
	for i := range spans {
		spans[i] = rlnc.NewSpan(geo.Blocks, geo.Payload)
		for _, c := range initial[i] {
			spans[i].Add(c)
		}
	}
	maxWindows := 4*(n/geo.D+geo.Blocks) + 64

	// Decodability is monotone (spans only gain rank), so the check
	// resumes at the first node not yet known to decode instead of
	// rescanning the whole network every meta-round.
	firstUndecoded := 0
	decoded := func() bool {
		for firstUndecoded < len(spans) {
			if !spans[firstUndecoded].CanDecode() {
				return false
			}
			firstUndecoded++
		}
		return true
	}

	for w := 0; w < maxWindows && !decoded(); w++ {
		// Align to the next window boundary.
		if mod := s.Round() % t; mod != 0 {
			if err := dynnet.Run(s, make([]idleNode, n), t-mod); err != nil {
				return nil, err
			}
		}
		windowEnd := s.Round() + t

		// Distributed patch building; it must fit in its budget.
		buildStart := s.Round()
		patches, err := BuildPatches(s, geo.D, rngs[0])
		if err != nil {
			return nil, err
		}
		if s.Round() > buildStart+geo.BuildBudget || s.Round() >= windowEnd {
			return nil, fmt.Errorf("stable: patch building took %d rounds, budget %d (window T=%d too tight)",
				s.Round()-buildStart, geo.BuildBudget, t)
		}
		if cur := tadv.Current(); cur != nil {
			if err := patches.Validate(cur); err != nil {
				return nil, fmt.Errorf("stable: patch invariants violated: %w", err)
			}
		}

		// Meta-rounds while they fit in the window.
		for s.Round()+geo.MetaCost() <= windowEnd {
			if err := metaRound(s, patches, spans, rngs, geo.ChunkBits, true); err != nil {
				return nil, err
			}
			if decoded() {
				break
			}
		}
	}

	if !decoded() {
		return nil, fmt.Errorf("stable: broadcast did not complete in %d windows", maxWindows)
	}
	out := make([][]gf.BitVec, n)
	for i, sp := range spans {
		payloads, err := sp.Decode()
		if err != nil {
			return nil, fmt.Errorf("stable: node %d: %w", i, err)
		}
		out[i] = payloads
	}
	return out, nil
}
