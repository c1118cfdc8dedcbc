package dissem

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/rlnc"
	"repro/internal/stable"
	"repro/internal/token"
)

// TStableDisseminate is the Theorem 2.4 algorithm (first variant):
// k-token dissemination on a T-stable network. Tokens are gathered with
// random-forward exactly as in greedy-forward, but each broadcast epoch
// uses the Section 8 share-pass-share machinery, whose per-epoch
// capacity scales as (bT)^2 bits instead of b^2 — the source of the
// quadratic stability speedup.
func TStableDisseminate(dist token.Distribution, p Params, t int, inner dynnet.Adversary) (Result, error) {
	n := len(dist)
	tadv := adversary.NewTStable(inner, t)
	fullGeo, err := stable.PlanGeometry(n, p.B, t)
	if err != nil {
		return Result{}, err
	}
	next, err := gathered(p, func(s *dynnet.Session, st *state, res forwarding.RandomForwardResult) error {
		// Size the coded vector to the remaining workload (smaller
		// vectors mean cheaper meta-rounds; the full geometry is the
		// (bT)^2 capacity ceiling). Capacity scales as L^2, so the
		// needed vector length scales as the square root of the
		// remaining bits.
		remBits := st.remaining() * (token.UIDBits + p.D + token.CountBits)
		geo := fullGeo.Shrink(2*intSqrt(remBits) + 256)
		m := token.TokensPerBlock(geo.Payload, p.D)
		if m < 1 {
			return fmt.Errorf("dissem: T-stable geometry payload %d bits cannot hold a d=%d token", geo.Payload, p.D)
		}
		// The leader packs up to geo.Blocks*m tokens into geo.Blocks
		// blocks, padded up to the geometry payload.
		packed, err := st.packLeaderBlocks(res.Identified, m, p.D, geo.Blocks, geo.Payload)
		if err != nil {
			return err
		}
		initial := make([][]rlnc.Coded, n)
		initial[res.Identified] = packed
		payloads, err := stable.Broadcast(s, tadv, geo, initial, st.rngs)
		if err != nil {
			return err
		}
		return st.deliverBlocks(payloads[0], m, p.D)
	})
	if err != nil {
		return Result{}, err
	}
	return disseminate("T-stable", dist, p, tadv, next)
}

// intSqrt returns floor(sqrt(x)) for x >= 0.
func intSqrt(x int) int {
	if x < 0 {
		return 0
	}
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}
