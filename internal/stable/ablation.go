package stable

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/graph"
	"repro/internal/rlnc"
)

// AblationMetaRounds measures the role of the second share step in the
// share-pass-share meta-round (the design choice DESIGN.md calls out):
// it runs repeated meta-rounds over a fixed patching of a static graph,
// with all blocks initially at node 0, until every node can decode, and
// returns the total rounds consumed. Finding: disabling the second
// share is a net win (~30% fewer total rounds) because consecutive
// meta-rounds fuse — the next meta-round's first share distributes what
// the pass delivered, doing the second share's job. The paper's
// three-step form buys a per-meta-round-independent analysis, not
// per-round progress.
func AblationMetaRounds(g *graph.Graph, d, blocks, payload, chunkBits int, secondShare bool, seed int64, maxMeta int) (int, error) {
	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	s := dynnet.NewSession(n, adversary.NewStatic(g), dynnet.Config{})
	patches, err := BuildPatches(s, d, rng)
	if err != nil {
		return 0, err
	}
	if err := patches.Validate(g); err != nil {
		return 0, err
	}
	spans := make([]*rlnc.Span, n)
	rngs := make([]*rand.Rand, n)
	for i := range spans {
		spans[i] = rlnc.NewSpan(blocks, payload)
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)*131 + 1))
	}
	for j := 0; j < blocks; j++ {
		spans[0].Add(rlnc.Encode(j, blocks, gf.RandomBitVec(payload, rng.Uint64)))
	}
	decoded := func() bool {
		for _, sp := range spans {
			if !sp.CanDecode() {
				return false
			}
		}
		return true
	}
	for meta := 0; meta < maxMeta; meta++ {
		if err := metaRound(s, patches, spans, rngs, chunkBits, secondShare); err != nil {
			return 0, err
		}
		if decoded() {
			return s.Metrics().Rounds, nil
		}
	}
	return 0, fmt.Errorf("stable: ablation did not decode in %d meta-rounds (secondShare=%v)", maxMeta, secondShare)
}
