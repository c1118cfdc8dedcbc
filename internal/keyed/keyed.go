// Package keyed builds every seeded random stream of the repository.
// A stream is keyed by the tuple (seed, purpose, index…), never by a
// sum, so two streams coincide only when their tuples do.
package keyed

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Purpose is the second word of a key: what the stream decides.
type Purpose uint64

// The gossip runtimes' purposes are 1–8; the synchronous model's follow.
const (
	// Node: a runtime node's peer picks and coding coins. Index: id,
	// spawn tick (0 for founders and RunSingle, the churn tick for a
	// join or rejoin, so a wiped id does not replay its first life).
	Node Purpose = iota + 1
	// Generation: a seeded stream source's payloads. Index: generation.
	Generation
	// Churn: the churner's victim and restart picks.
	Churn
	// Loss, Delay, Reorder, Mutator: the WithLoss / WithDelay /
	// WithReorder / hostile.WithMutator draws. Index: sender.
	Loss
	Delay
	Reorder
	Mutator
	// Adversary: hostile.Adaptive's tie-breaks.
	Adversary
	// Payloads: a synchronous run's token payloads and placement.
	Payloads
	// Coins: a synchronous node's coding and forwarding coins. Index: node.
	Coins
	// Topology: package adversary's topologies and derand's staller.
	Topology
	// Advice: derand.AdviceSchedule, a Word. Index: node, round, row.
	Advice
	// Trial: an experiment trial's seed under the run seed. Index: trial.
	Trial
)

// Word hashes the key (seed, purpose, index…) to one word, mixing each
// key word in before the next is added, so keys one apart in any word —
// neighbouring ids, consecutive trials — hash to unrelated words.
func Word(seed int64, purpose Purpose, index ...int64) uint64 {
	h := mix(mix(uint64(seed)) + uint64(purpose))
	for _, w := range index {
		h = mix(h + uint64(w))
	}
	return h
}

// Rand returns the stream keyed by (seed, purpose, index…): a 16-byte
// PCG seeded from Word, behind the *rand.Rand the nodes and rlnc take.
func Rand(seed int64, purpose Purpose, index ...int64) *rand.Rand {
	h := Word(seed, purpose, index...)
	src := new(source)
	src.PCG.Seed(h, mix(h))
	return rand.New(src)
}

// Rands returns the n streams (seed, purpose, i), i in [0, n): one per
// node of a synchronous run.
func Rands(n int, seed int64, purpose Purpose) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = Rand(seed, purpose, int64(i))
	}
	return rngs
}

// mix is the splitmix64 step: a Weyl increment, then a bijective
// finaliser in which every input bit reaches every output bit.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// source adapts the PCG to rand.Source64.
type source struct{ randv2.PCG }

func (s *source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed is rand.Source's; a stream is keyed once, at construction.
func (s *source) Seed(int64) { panic("keyed: a stream is not reseeded; build one with Rand") }
