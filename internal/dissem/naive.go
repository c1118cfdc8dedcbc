package dissem

import (
	"fmt"

	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// Naive is the Corollary 7.1 algorithm: nodes repeatedly flood the
// smallest Omega(b / log n) UIDs of not-yet-broadcast tokens they know
// (n rounds), index those tokens by their UID order, and broadcast them
// with network-coded indexed broadcast (O(n) rounds). It needs
// O(k log(n)/b) iterations, giving O((log n / d) · nkd/b) total — only a
// log(n)/d factor better than forwarding, which is why Section 7 then
// develops the gathering-based algorithms.
func Naive(dist token.Distribution, p Params, adv dynnet.Adversary) (Result, error) {
	// g UIDs of UIDBits each per message, and g coefficients + d payload
	// must also fit one message in the broadcast step.
	g := min((p.B-token.CountBits)/token.UIDBits, p.B-p.D)
	if g < 1 {
		return Result{}, fmt.Errorf("dissem: budget b=%d too small for naive indexing with d=%d", p.B, p.D)
	}
	return disseminate("naive", dist, p, adv, func(s *dynnet.Session, st *state) (bool, error) {
		// Phase 1: flood the g smallest eligible UIDs for n rounds. They
		// fit one message, so this is a single flooding phase, after
		// which every node holds the same sorted list.
		n := s.N()
		own := make([][]uint64, n)
		for i := range own {
			for _, t := range st.unbroadcast(i, -1) {
				own[i] = append(own[i], uint64(t.UID))
			}
		}
		chosen, err := forwarding.FloodSmallestMulti(s, own, g, g, token.UIDBits, n)
		if err != nil || len(chosen) == 0 {
			return false, err
		}

		// Phase 2: coded indexed broadcast of the chosen tokens, indexed
		// by their position in the (shared, sorted) chosen list.
		kDims := len(chosen)
		initial := make([][]rlnc.Coded, n)
		for i := range initial {
			for idx, u := range chosen {
				if t, ok := st.sets[i].Get(token.UID(u)); ok {
					initial[i] = append(initial[i], rlnc.Encode(idx, kDims, t.Payload))
				}
			}
		}
		payloads, err := codedBroadcast(s, st, kDims, p.D, initial)
		if err != nil {
			return false, err
		}
		delivered := make([]token.Token, kDims)
		for idx, u := range chosen {
			delivered[idx] = token.Token{UID: token.UID(u), Payload: payloads[idx]}
		}
		st.deliver(delivered)
		return true, nil
	})
}
