// Package derand implements Section 6 of the paper: random linear
// network coding is not inherently randomized. It provides
//
//   - the witness-counting arithmetic behind Theorem 6.1's union bound
//     (how large the field must be before the q^{-n} failure probability
//     beats the exp(nk log n) count of compact adversary witnesses);
//   - an omniscient adversary that sees every message before choosing
//     the topology and steers connectivity to stall the spread of a
//     target coefficient direction — the adversary model Theorem 6.1
//     defends against; and
//   - deterministic coefficient schedules (the "advice matrix" of
//     Corollary 6.2) for the scheduled broadcast nodes in package rlnc.
package derand

import (
	"math"
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/graph"
	"repro/internal/rlnc"
)

// WitnessBits returns the size in bits of the canonical witness space of
// Theorem 6.1: each of n nodes has at most k learning events, each
// specified by a time in [rounds] and a sender in [n], so a witness
// costs about n*k*(lg rounds + lg n) bits.
func WitnessBits(n, k, rounds int) float64 {
	if n < 1 || k < 1 || rounds < 1 {
		return 0
	}
	return float64(n) * float64(k) * (math.Log2(float64(rounds)) + math.Log2(float64(n)))
}

// FailureExponentBits returns lg(1/p) for the per-witness failure bound
// p = q^{-n}.
func FailureExponentBits(n int, q uint64) float64 {
	return float64(n) * math.Log2(float64(q))
}

// UnionBoundHolds reports whether the Theorem 6.1 union bound closes:
// the number of witnesses times the per-witness failure probability is
// below 2^{-margin}.
func UnionBoundHolds(n, k, rounds int, q uint64, margin float64) bool {
	return FailureExponentBits(n, q) >= WitnessBits(n, k, rounds)+margin
}

// RequiredFieldBits returns the minimal lg q for which the union bound
// closes with the given margin — the paper's q = n^{Omega(k)}, i.e.
// lg q = Omega(k log n), which is why derandomization costs a k^2 log n
// coefficient overhead instead of k.
func RequiredFieldBits(n, k, rounds int, margin float64) float64 {
	return (WitnessBits(n, k, rounds) + margin) / float64(n)
}

// StallAdversary is an omniscient adversary (it sees the round's fixed
// messages before wiring the graph) that tries to prevent one target
// coefficient direction mu from being sensed by new nodes: it keeps the
// nodes that already sense mu in one chain, the rest in another, and
// joins them through a sensing node whose current message happens to be
// orthogonal to mu — which exists with probability about 1 - (1-1/q)^s
// when s nodes sense mu. Over GF(2) that approaches certainty as soon as
// a few nodes sense the target, so the omniscient adversary stalls the
// spread almost completely; over a field with q >> n it almost never
// finds a blocking message. This is the quantitative content of
// Theorem 6.1: defeating an omniscient adversary requires a large field.
type StallAdversary struct {
	mu  gf.Vec
	f   gf.Field
	rng *rand.Rand

	// Stalls counts rounds in which a blocking crossing edge existed.
	Stalls int
	// Rounds counts rounds in which a crossing edge was needed at all.
	Rounds int
}

var _ dynnet.OmniscientAdversary = (*StallAdversary)(nil)

// NewStallAdversary targets direction mu over field f.
func NewStallAdversary(f gf.Field, mu gf.Vec, seed int64) *StallAdversary {
	return &StallAdversary{mu: mu, f: f, rng: rand.New(rand.NewSource(seed))}
}

// Graph implements the non-omniscient path for completeness: without
// message knowledge it behaves like a random bottleneck.
func (a *StallAdversary) Graph(round int, nodes []dynnet.Node) *graph.Graph {
	return a.GraphAfterMessages(round, nodes, make([]dynnet.Message, len(nodes)))
}

// GraphAfterMessages wires the round's topology with full knowledge of
// the chosen messages.
func (a *StallAdversary) GraphAfterMessages(_ int, nodes []dynnet.Node, msgs []dynnet.Message) *graph.Graph {
	n := len(nodes)
	var sensing, dark []int
	for i, nd := range nodes {
		gb, ok := nd.(*rlnc.GBroadcastNode)
		if ok && gb.Span().Senses(a.mu) {
			sensing = append(sensing, i)
		} else {
			dark = append(dark, i)
		}
	}
	g := graph.New(n)
	chain := func(vs []int) {
		for i := 0; i+1 < len(vs); i++ {
			g.AddEdge(vs[i], vs[i+1])
		}
	}
	a.rng.Shuffle(len(sensing), func(i, j int) { sensing[i], sensing[j] = sensing[j], sensing[i] })
	a.rng.Shuffle(len(dark), func(i, j int) { dark[i], dark[j] = dark[j], dark[i] })
	chain(sensing)
	chain(dark)
	if len(sensing) == 0 || len(dark) == 0 {
		return g
	}
	a.Rounds++
	// Prefer a crossing endpoint whose fixed message is orthogonal to mu
	// (or silent): then this round transfers no sensing of mu.
	bridge := sensing[len(sensing)-1]
	stalled := false
	for _, s := range sensing {
		m, ok := msgs[s].(rlnc.GCoded)
		if !ok || gf.Vec(m.Vec[:len(a.mu)]).Dot(a.f, a.mu) == 0 {
			bridge = s
			stalled = true
			break
		}
	}
	if stalled {
		a.Stalls++
	}
	g.AddEdge(bridge, dark[0])
	return g
}

// AdviceSchedule returns a deterministic coefficient schedule derived by
// hashing (node, round, row) — the stand-in for the Corollary 6.2 advice
// matrix, which exists by the probabilistic argument of Theorem 6.1 and
// is shared by all nodes. The same (seed, field) always yields the same
// schedule.
func AdviceSchedule(f gf.Field, seed int64) func(node, round, row int) uint64 {
	q := f.Q()
	return func(node, round, row int) uint64 {
		x := uint64(seed) ^ uint64(node)*0x9e3779b97f4a7c15 ^ uint64(round)*0xbf58476d1ce4e5b9 ^ uint64(row)*0x94d049bb133111eb
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x % q
	}
}

// RunOmniscientBroadcast runs the Lemma 5.3 indexed broadcast against a
// stalling omniscient adversary over field f, with one token per node,
// and reports whether every node decoded within the schedule plus the
// adversary's stall statistics. This is the E8 experiment kernel: over
// GF(2) the adversary blocks nearly every round, so an O(n) schedule
// fails to decode; over large fields blocking messages essentially never
// exist and the broadcast completes on schedule.
func RunOmniscientBroadcast(f gf.Field, n, payloadElems, schedule int, seed int64) (decodedAll bool, stalls, rounds int, err error) {
	rng := rand.New(rand.NewSource(seed))
	mu := gf.NewVec(n)
	mu[0] = 1 // target: the direction of token 0
	adv := NewStallAdversary(f, mu, seed+1)

	nodes := make([]*rlnc.GBroadcastNode, n)
	for i := 0; i < n; i++ {
		payload := gf.RandomVec(f, payloadElems, rng.Uint64)
		nrng := rand.New(rand.NewSource(seed + 1000 + int64(i)))
		nodes[i] = rlnc.NewGBroadcastNode(f, n, payloadElems, []rlnc.GCoded{rlnc.GEncode(f, i, n, payload)}, nrng)
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{})
	if err := dynnet.Run(s, nodes, schedule); err != nil {
		return false, adv.Stalls, adv.Rounds, err
	}
	decodedAll = true
	for _, nd := range nodes {
		if !nd.Span().CanDecode() {
			decodedAll = false
			break
		}
	}
	return decodedAll, adv.Stalls, adv.Rounds, nil
}
