package cluster

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Purpose is the second word of a random stream's key: what the stream
// decides. A runtime stream is keyed by the tuple (seed, purpose,
// index…), never by a sum, so two streams coincide only when their
// tuples do.
type Purpose uint64

const (
	// RandNode: a node's peer picks and coding coins. Index: node id,
	// then the tick the incarnation was spawned at — 0 for founding
	// members and for a process of a multi-process run (RunSingle), the
	// churn tick for a join or rejoin, so a wiped id does not replay
	// its first life.
	RandNode Purpose = iota + 1
	// RandGeneration: the payloads of one generation of a seeded stream
	// source. Index: generation.
	RandGeneration
	// RandChurn: the churner's victim and restart picks.
	RandChurn
	// RandLoss, RandDelay, RandReorder: the WithLoss / WithDelay /
	// WithReorder draws, one per Send.
	RandLoss
	RandDelay
	RandReorder
	// RandMutator: hostile.WithMutator's operation and byte picks.
	RandMutator
	// RandAdversary: hostile.Adaptive's tie-breaks.
	RandAdversary
)

// NewRand returns the stream keyed by (seed, purpose, index…): every
// seeded random decision of the gossip runtimes draws from one of
// these, and nothing else constructs a generator. The state is 16
// bytes (a PCG); each word of the key goes through mix before the next
// is added, so keys that differ in one word by 1 — neighbouring ids,
// consecutive trial seeds — start on unrelated words.
func NewRand(seed int64, purpose Purpose, index ...int64) *rand.Rand {
	h := mix(mix(uint64(seed)) + uint64(purpose))
	for _, w := range index {
		h = mix(h + uint64(w))
	}
	src := new(keyedSource)
	src.PCG.Seed(h, mix(h))
	return rand.New(src)
}

// mix is the splitmix64 step: a Weyl increment, then a bijective
// finaliser in which every input bit reaches every output bit.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// keyedSource adapts the 16-byte PCG to the rand.Source64 that
// *rand.Rand — what Node.Rng and rlnc take — draws from.
type keyedSource struct{ randv2.PCG }

func (s *keyedSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed is rand.Source's; streams are keyed at construction and nothing
// in the runtimes reseeds one.
func (s *keyedSource) Seed(int64) {
	panic("cluster: a keyed stream is not reseeded; build one with NewRand")
}
