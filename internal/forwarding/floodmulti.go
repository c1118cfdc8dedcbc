package forwarding

import (
	"fmt"
	"slices"

	"repro/internal/dynnet"
)

// FloodSmallestMulti floods the selectCount globally smallest values
// across the network when they do not all fit in one message: it runs
// ceil(selectCount/perMsg) phases of n rounds, each flooding (and then
// finalizing) the perMsg smallest not-yet-finalized values. This is the
// "naive indexing algorithm via flooding" the paper describes, whose
// log-factor overhead priority-forward inherits in our implementation
// (the paper's recursive O(n)-time refinement is deferred to its full
// version; see DESIGN.md).
//
// own[i] holds node i's initial values. phaseLen is the per-phase round
// count — n for a network of known size, or the current size estimate in
// the counting application. The returned slice is the ascending list of
// at most selectCount global minima, identical at all nodes when
// phaseLen >= n (the driver cross-checks).
func FloodSmallestMulti(s *dynnet.Session, own [][]uint64, selectCount, perMsg, width, phaseLen int) ([]uint64, error) {
	n := s.N()
	if len(own) != n {
		return nil, fmt.Errorf("forwarding: %d value sets for %d nodes", len(own), n)
	}
	if perMsg < 1 {
		return nil, fmt.Errorf("forwarding: perMsg must be >= 1")
	}
	if phaseLen < 1 {
		return nil, fmt.Errorf("forwarding: phaseLen must be >= 1")
	}
	finalized := make([]uint64, 0, selectCount)
	inFinal := make(map[uint64]bool, selectCount)

	for len(finalized) < selectCount {
		impls := make([]*SmallestFloodNode, n)
		for i := range impls {
			var vals []uint64
			for _, v := range own[i] {
				if !inFinal[v] {
					vals = append(vals, v)
				}
			}
			impls[i] = NewSmallestFloodNode(vals, perMsg, perMsg, width)
		}
		if err := dynnet.Run(s, impls, phaseLen); err != nil {
			return nil, err
		}
		chosen := impls[0].Smallest()
		for _, other := range impls[1:] {
			if !slices.Equal(other.Smallest(), chosen) {
				return nil, fmt.Errorf("forwarding: flood phase disagreement on values")
			}
		}
		if len(chosen) == 0 {
			break
		}
		for _, v := range chosen {
			if len(finalized) == selectCount {
				break
			}
			finalized = append(finalized, v)
			inFinal[v] = true
		}
		if len(chosen) < perMsg {
			// The network is exhausted: nothing more to select.
			break
		}
	}
	return finalized, nil
}
