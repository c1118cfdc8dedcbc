package count

import (
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/keyed"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// Exported functions only this package's tests call.

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
		for i := range initial {
			for idx, id := range ids {
				if known[i][id] {
					payload := gf.NewBitVec(token.UIDBits)
					payload.SetWord(0, id)
					initial[i] = append(initial[i], rlnc.Encode(idx, kDims, payload))
				}
			}
		}
		nodes, err := rlnc.IndexedBroadcast(s, kDims, token.UIDBits, initial, keyed.Rands(n, seed, keyed.Coins), rlnc.DefaultSchedule(2*m, kDims), nil)
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
