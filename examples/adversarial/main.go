// Adversarial: how much adversary strength costs, and when field size
// buys it back (Sections 4-6).
//
// Three adversaries face the same coded indexed broadcast:
//
//  1. an oblivious random rewirer (easy),
//  2. the adaptive "isolate the informed" bottleneck, which inspects
//     node state and allows only one informative edge per round, and
//  3. the omniscient staller of Theorem 6.1, which sees every message
//     before wiring the graph. Over GF(2) it blocks almost every round;
//     over F_65537 blocking messages essentially never exist — the
//     quantitative heart of the derandomization section.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/derand"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
)

const (
	n = 16 // nodes, one token each
	d = 8  // payload bits
)

func main() {
	fmt.Println("coded indexed broadcast vs adversaries (n = k = 16)")
	fmt.Println()

	r1 := mustRounds(runUntilDecoded(adversary.NewRandomConnected(n, n/2, 1)))
	fmt.Printf("oblivious random adversary:   decoded after %3d rounds\n", r1)

	iso := adversary.NewIsolateInformed(n, 2, func(i int, nodes []dynnet.Node) bool {
		bn, ok := nodes[i].(*rlnc.BroadcastNode)
		return ok && bn.Span().Rank() > 1
	})
	r2 := mustRounds(runUntilDecoded(iso))
	fmt.Printf("adaptive isolation adversary: decoded after %3d rounds (one useful edge per round)\n", r2)

	fmt.Println()
	fmt.Println("omniscient staller (sees messages before wiring; Theorem 6.1):")
	for _, f := range []gf.Field{gf.GF2{}, gf.MustGF2e(8), gf.MustPrime(65537)} {
		ok, stalls, rounds, err := derand.RunOmniscientBroadcast(f, n, d, 20*n, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s blocked %3d of %3d crossing rounds; decoded in 20n rounds: %v\n",
			f.String(), stalls, rounds, ok)
	}
	fmt.Println()
	fmt.Println("small fields fall to omniscient adversaries; q >> n restores the guarantee,")
	fmt.Println("at a coefficient-header cost of k*lg(q) bits (Corollary 6.2)")
}

func runUntilDecoded(adv dynnet.Adversary) (int, error) {
	rng := rand.New(rand.NewSource(9))
	initial := make([][]rlnc.Coded, n)
	rngs := make([]*rand.Rand, n)
	for i := range initial {
		initial[i] = []rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(d, rng.Uint64))}
		rngs[i] = rand.New(rand.NewSource(int64(100 + i)))
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: n + d})
	_, err := rlnc.IndexedBroadcast(s, n, d, initial, rngs, 64*2*n, true)
	return s.Round(), err
}

func mustRounds(r int, err error) int {
	if err != nil {
		log.Fatal(err)
	}
	return r
}
