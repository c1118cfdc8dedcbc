// Package count implements the counting application the paper motivates
// k-token dissemination with (Section 4.1): determine the number of
// nodes in a dynamic network of unknown size by estimate doubling. Each
// node owns one ID token; for estimates m = 2, 4, 8, ... the nodes run
// an m-sized dissemination schedule of all IDs and a verification
// sub-phase, doubling on failure. Because schedules grow geometrically,
// the total cost is dominated by the final (successful) phase — the
// "factor of two" remark of Section 4.1 that experiment E7 measures.
// Run and RunCoded are one doubling loop (run); they differ in one
// optional stage, the coded confirmation of the indexed IDs.
package count

import (
	"fmt"
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// Result reports a counting run.
type Result struct {
	// N is the agreed node count.
	N int
	// Estimate is the final (successful) size estimate m >= N.
	Estimate int
	// TotalRounds is the cost of the whole run including failed phases.
	TotalRounds int
	// FinalPhaseRounds is the cost of the successful phase alone.
	FinalPhaseRounds int
	// Phases is the number of estimates tried.
	Phases int
}

// Run counts an n-node network with b-bit messages. Nodes do not use n
// except through the session; the dissemination schedule in each phase
// depends only on the current estimate m. Failure of a phase (some node
// would not have terminated consistently) is detected by the harness
// standing in for the paper's deferred detection mechanism, and the
// verification rounds the mechanism would cost are charged.
func Run(n, b int, adv dynnet.Adversary, seed int64) (Result, error) {
	return run(n, b, adv, nil)
}

// RunCoded is the counting application built on Corollary 7.1's coded
// dissemination instead of pure flooding: each phase floods the m
// smallest IDs to establish an indexing (as Run does) and then confirms
// them with a network-coded indexed broadcast whose payloads are the
// IDs themselves. For log-sized tokens the indexing flood dominates, so
// coded counting costs the same order as flooding-based counting — the
// paper's observation that Corollary 7.1 "cannot lead to any
// improvement" when the tokens are themselves O(log n) bits. The
// function exists to measure exactly that, and as a second full client
// of the coding stack.
func RunCoded(n, b int, adv dynnet.Adversary, seed int64) (Result, error) {
	return run(n, b, adv, func(s *dynnet.Session, m int, ids []uint64, known []map[uint64]bool) error {
		// The ID coefficient header must fit alongside the 64-bit
		// payload.
		if len(ids) == 0 || len(ids)+token.UIDBits > b {
			return nil
		}
		// Index i carries ID ids[i]; a node injects the IDs it knows.
		kDims := len(ids)
		initial := make([][]rlnc.Coded, n)
		rngs := make([]*rand.Rand, n)
		for i := range initial {
			for idx, id := range ids {
				if known[i][id] {
					payload := gf.NewBitVec(token.UIDBits)
					payload.SetWord(0, id)
					initial[i] = append(initial[i], rlnc.Encode(idx, kDims, payload))
				}
			}
			rngs[i] = rand.New(rand.NewSource(seed + int64(i)*271 + 5))
		}
		nodes, err := rlnc.IndexedBroadcast(s, kDims, token.UIDBits, initial, rngs, rlnc.DefaultSchedule(2*m, kDims), false)
		if err != nil {
			return err
		}
		// Nodes that decode merge the confirmed IDs; with m >= n the
		// schedule guarantees this whp.
		for i, nd := range nodes {
			payloads, err := nd.Span().Decode()
			if err != nil {
				continue // counts as a failed phase in verification
			}
			for _, p := range payloads {
				known[i][p.Word(0)] = true
			}
		}
		return nil
	})
}

// run is the estimate-doubling loop. confirm, when non-nil, is the one
// optional stage of a phase: it runs between the indexing flood and the
// verification, and what nodes learn in the phase is then what it
// teaches them instead of the flood's list.
func run(n, b int, adv dynnet.Adversary, confirm func(s *dynnet.Session, m int, ids []uint64, known []map[uint64]bool) error) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("count: n must be >= 1")
	}
	perMsg := (b - token.CountBits) / token.UIDBits
	if perMsg < 1 {
		return Result{}, fmt.Errorf("count: budget b=%d cannot carry a node ID", b)
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: b})

	// Every node's knowledge starts as its own ID and persists across
	// phases (restarting from scratch would only change constants).
	known := make([]map[uint64]bool, n)
	own := make([][]uint64, n)
	for i := range known {
		known[i] = map[uint64]bool{uint64(i) + 1: true} // IDs 1..n; 0 is reserved
	}

	res := Result{}
	for m := 2; ; m *= 2 {
		res.Phases++
		if res.Phases > 64 {
			return Result{}, fmt.Errorf("count: estimate overflow")
		}
		phaseStart := s.Round()

		// Dissemination schedule for estimate m: flood the m smallest
		// IDs in sub-phases of m rounds each (the Corollary 7.1
		// bottleneck). With m >= n this floods every ID to every node.
		for i := range own {
			own[i] = own[i][:0]
			for id := range known[i] {
				own[i] = append(own[i], id)
			}
		}
		ids, err := forwarding.FloodSmallestMulti(s, own, m, perMsg, token.UIDBits, m)
		if err != nil {
			// Sub-phase disagreement is exactly a failed phase when the
			// estimate is too small; charge it and double.
			continue
		}
		if confirm != nil {
			// The flood only indexed the IDs; nodes learn them from the
			// confirmation broadcast.
			if err := confirm(s, m, ids, known); err != nil {
				return Result{}, err
			}
		} else {
			// Merge what the flood taught each node. (FloodSmallestMulti
			// returns the agreed global list; per-node merges below
			// model each node retaining everything it heard.)
			for i := range known {
				for _, id := range ids {
					known[i][id] = true
				}
			}
		}

		// Verification sub-phase: m rounds of count flooding. A node
		// that sees a higher count than its own knows the estimate
		// failed; the harness also fails the phase when some node's
		// knowledge is incomplete (the paper's full detection mechanism
		// is deferred to its full version).
		verify := make([]*forwarding.MaxFloodNode, n)
		for i := range verify {
			verify[i] = forwarding.NewMaxFloodNode(uint64(len(known[i])), 32)
		}
		if err := dynnet.Run(s, verify, m); err != nil {
			return Result{}, err
		}

		failed := false
		for i := range known {
			if len(known[i]) != n || int(verify[i].Best()) != len(known[i]) || len(known[i]) > m {
				failed = true
				break
			}
		}
		if !failed {
			res.N = n
			res.Estimate = m
			res.FinalPhaseRounds = s.Round() - phaseStart
			res.TotalRounds = s.Round()
			return res, nil
		}
	}
}
