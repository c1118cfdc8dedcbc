package repro_test

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/count"
	"repro/internal/derand"
	"repro/internal/dissem"
	"repro/internal/dynnet"
	"repro/internal/exp"
	"repro/internal/forwarding"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/stable"
	"repro/internal/token"
)

// Network coding beats token forwarding on a dynamic network.
//
// Sixty-four nodes each hold one 8-bit token. An adversary rewires the
// (connected) topology every round. All 64 tokens go to all nodes twice
// — once with the Theorem 2.1 token-forwarding baseline and once with
// the paper's network-coded greedy-forward — and the round counts are
// printed (the coding advantage grows with n; the crossover sits near
// n = 48 at these parameters). Then the Section 5.2 end-game: a node
// missing one unknown token out of k is finished by a single XOR.
func Example_quickstart() {
	const (
		n    = 64  // nodes
		d    = 8   // token payload bits
		b    = 512 // message budget bits
		seed = 42
	)

	// Every node starts with one token: the canonical n-token
	// dissemination instance (k = n).
	dist := token.OnePerNode(n, d, rand.New(rand.NewSource(seed)))

	// The adversary picks a fresh random connected topology every round.
	fwdRounds, err := forwarding.RunPipelinedFlood(dist, n, b, d,
		adversary.NewRandomConnected(n, n/2, seed))
	if err != nil {
		panic(err)
	}
	fmt.Printf("token forwarding (Thm 2.1 baseline): %4d rounds\n", fwdRounds)

	res, err := dissem.GreedyForward(dist, dissem.Params{B: b, D: d, Seed: seed},
		adversary.NewRandomConnected(n, n/2, seed))
	if err != nil {
		panic(err)
	}
	fmt.Printf("network coding (greedy-forward):     %4d rounds, %d broadcast iteration(s)\n",
		res.Rounds, res.Iterations)

	// Section 5.2 end-game: node B has 63 of A's 64 tokens; A does not
	// know which one is missing. One XOR of everything finishes B.
	const k = 64
	if exp.EndgameCodedDecodes(k, d, seed) {
		fmt.Printf("end-game (k = %d): one XOR message completed the missing token "+
			"(forwarding needs ~%d rounds in expectation)\n", k, k/2)
	}
	// Output:
	// token forwarding (Thm 2.1 baseline):  704 rounds
	// network coding (greedy-forward):      552 rounds, 1 broadcast iteration(s)
	// end-game (k = 64): one XOR message completed the missing token (forwarding needs ~32 rounds in expectation)
}

// How much adversary strength costs, and when field size buys it back
// (Sections 4-6). Three adversaries face the same coded indexed
// broadcast:
//
//  1. an oblivious random rewirer (easy),
//  2. the adaptive "isolate the informed" bottleneck, which inspects
//     node state and allows only one informative edge per round, and
//  3. the omniscient staller of Theorem 6.1, which sees every message
//     before wiring the graph. Over GF(2) it blocks almost every round;
//     over F_65537 blocking messages essentially never exist — the
//     quantitative heart of the derandomization section.
func Example_adversarial() {
	const (
		n = 16 // nodes, one token each
		d = 8  // payload bits
	)
	runUntilDecoded := func(adv dynnet.Adversary) int {
		rng := rand.New(rand.NewSource(9))
		initial := make([][]rlnc.Coded, n)
		rngs := make([]*rand.Rand, n)
		for i := range initial {
			initial[i] = []rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(d, rng.Uint64))}
			rngs[i] = rand.New(rand.NewSource(int64(100 + i)))
		}
		s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: n + d})
		if _, err := rlnc.IndexedBroadcast(s, n, d, initial, rngs, 64*2*n, rlnc.Decoded()); err != nil {
			panic(err)
		}
		return s.Round()
	}

	fmt.Println("coded indexed broadcast vs adversaries (n = k = 16)")
	fmt.Println()

	r1 := runUntilDecoded(adversary.NewRandomConnected(n, n/2, 1))
	fmt.Printf("oblivious random adversary:   decoded after %3d rounds\n", r1)

	iso := adversary.NewIsolateInformed(n, 2, func(i int, nodes []dynnet.Node) bool {
		bn, ok := nodes[i].(*rlnc.BroadcastNode)
		return ok && bn.Span().Rank() > 1
	})
	r2 := runUntilDecoded(iso)
	fmt.Printf("adaptive isolation adversary: decoded after %3d rounds (one useful edge per round)\n", r2)

	fmt.Println()
	fmt.Println("omniscient staller (sees messages before wiring; Theorem 6.1):")
	for _, f := range []gf.Field{gf.GF2{}, gf.MustGF2e(8), gf.MustPrime(65537)} {
		ok, stalls, rounds, err := derand.RunOmniscientBroadcast(f, n, d, 20*n, 3)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-9s blocked %3d of %3d crossing rounds; decoded in 20n rounds: %v\n",
			f.String(), stalls, rounds, ok)
	}
	fmt.Println()
	fmt.Println("small fields fall to omniscient adversaries; q >> n restores the guarantee,")
	fmt.Println("at a coefficient-header cost of k*lg(q) bits (Corollary 6.2)")
	// Output:
	// coded indexed broadcast vs adversaries (n = k = 16)
	//
	// oblivious random adversary:   decoded after  10 rounds
	// adaptive isolation adversary: decoded after  14 rounds (one useful edge per round)
	//
	// omniscient staller (sees messages before wiring; Theorem 6.1):
	//   GF(2)     blocked 314 of 320 crossing rounds; decoded in 20n rounds: false
	//   GF(2^8)   blocked   0 of  15 crossing rounds; decoded in 20n rounds: true
	//   F_65537   blocked   0 of  15 crossing rounds; decoded in 20n rounds: true
	//
	// small fields fall to omniscient adversaries; q >> n restores the guarantee,
	// at a coefficient-header cost of k*lg(q) bits (Corollary 6.2)
}

// Determine the size of a dynamic network of unknown size.
//
// The paper motivates k-token dissemination as "universal": any function
// of distributed inputs can be computed by disseminating them. The
// canonical instance is counting (Section 4.1): nodes start knowing only
// their own IDs and an initial size estimate of 2; each phase runs an
// ID-dissemination schedule sized to the current estimate and doubles on
// failure. The geometric schedule makes the total cost at most about
// twice the final successful phase.
func Example_counting() {
	const b = 1024 // message budget in bits

	fmt.Println("counting dynamic networks by estimate doubling (Section 4.1)")
	fmt.Println()
	fmt.Printf("%6s %9s %7s %13s %13s %7s\n", "true n", "estimate", "phases", "total rounds", "final phase", "ratio")
	for _, n := range []int{5, 10, 20, 40, 80} {
		res, err := count.Run(n, b, adversary.NewRandomConnected(n, n/2, int64(n)), int64(n))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%6d %9d %7d %13d %13d %7.2f\n",
			res.N, res.Estimate, res.Phases, res.TotalRounds, res.FinalPhaseRounds,
			float64(res.TotalRounds)/float64(res.FinalPhaseRounds))
	}
	fmt.Println()
	fmt.Println("the total/final ratio stays near 2: failed phases form a geometric sum")
	// Output:
	// counting dynamic networks by estimate doubling (Section 4.1)
	//
	// true n  estimate  phases  total rounds   final phase   ratio
	//      5         8       3            26            16    1.62
	//     10        16       4            58            32    1.81
	//     20        32       5           166            96    1.73
	//     40        64       6           454           256    1.77
	//     80       128       7          1478           896    1.65
	//
	// the total/final ratio stays near 2: failed phases form a geometric sum
}

// The T-stability machinery of Section 8.
//
// A T-stable network changes its topology only every T rounds. The
// paper's share-pass-share algorithm patches each stable topology into
// Theta(T/log n)-radius districts (a distributed Luby MIS on the powered
// graph) and pipelines large coded vectors through them, so one
// broadcast ships Blocks x Payload bits whose product — the per-window
// information capacity — grows quadratically in T, while token
// forwarding can only exploit stability linearly (Theorem 2.1 is tight
// for knowledge-based forwarding).
//
// One full coded broadcast per T from a single source prints the
// delivered bits, the rounds, and the capacity the full window geometry
// would support. The asymptotic T^2-vs-T crossover lies in the paper's
// bT^2 <~ n regime (see DESIGN.md, E5); what is visible at laptop scale
// is the quadratically growing capacity and the whp-correct pipeline.
func Example_stable() {
	const (
		n = 48  // nodes
		b = 160 // message budget bits: 32-bit chunks after pipeline headers
	)

	fmt.Printf("T-stable coded broadcast from one source (n = %d, b = %d)\n\n", n, b)
	fmt.Printf("%5s %12s %14s %12s %22s\n", "T", "shipped bits", "rounds", "bits/round", "full window capacity")
	for _, T := range []int{48, 96, 192} {
		geo := stable.ScaledGeometry(b, T)
		blocks, payload := geo.Blocks, geo.Payload

		rng := rand.New(rand.NewSource(int64(T)))
		initial := make([][]rlnc.Coded, n)
		for j := 0; j < blocks; j++ {
			initial[0] = append(initial[0], rlnc.Encode(j, blocks, gf.RandomBitVec(payload, rng.Uint64)))
		}
		rngs := make([]*rand.Rand, n)
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(int64(T*1000 + i)))
		}
		tadv := adversary.NewTStable(adversary.NewRandomConnected(n, n, int64(T)), T)
		s := dynnet.NewSession(n, tadv, dynnet.Config{BitBudget: b})
		if _, err := stable.Broadcast(s, tadv, geo, initial, rngs); err != nil {
			panic(err)
		}

		full, err := stable.PlanGeometry(n, b, T)
		if err != nil {
			panic(err)
		}
		rounds := s.Metrics().Rounds
		fmt.Printf("%5d %12d %14d %12.2f %17d bits\n",
			T, blocks*payload, rounds, float64(blocks*payload)/float64(rounds), full.Capacity())
	}
	fmt.Println()
	fmt.Println("capacity grows ~4x per T doubling (the (bT)^2 mechanism of Lemma 8.1);")
	fmt.Println("every broadcast decoded at all nodes despite per-window topology changes")
	// Output:
	// T-stable coded broadcast from one source (n = 48, b = 160)
	//
	//     T shipped bits         rounds   bits/round   full window capacity
	//    48          108            131         0.82              4096 bits
	//    96          432            244         1.77             16384 bits
	//   192         1728            490         3.53             73984 bits
	//
	// capacity grows ~4x per T doubling (the (bT)^2 mechanism of Lemma 8.1);
	// every broadcast decoded at all nodes despite per-window topology changes
}
