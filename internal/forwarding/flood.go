package forwarding

import (
	"fmt"
	"slices"

	"repro/internal/dynnet"
)

// valueNode floods the least values across the network: it keeps the
// keep least values it has heard and every round broadcasts the perMsg
// least of them at width bits each. The s globally least values are
// always among the s least of any node that heard them, so for
// perMsg >= s each floods within n-1 rounds on always-connected
// dynamics. It is the indexing subroutine of Corollary 7.1 (token UIDs
// as values) and of priority-forward (block priorities as values), and
// at keep 1 over complemented values the maximum flood (FloodMax).
type valueNode struct {
	keep, perMsg, width int
	known               []uint64 // ascending, at most keep long
}

var _ dynnet.Node = (*valueNode)(nil)

// add keeps v if it is new and among the keep least heard.
func (nd *valueNode) add(v uint64) {
	i, found := slices.BinarySearch(nd.known, v)
	if found || i >= nd.keep {
		return
	}
	if len(nd.known) == nd.keep {
		nd.known = nd.known[:nd.keep-1]
	}
	nd.known = slices.Insert(nd.known, i, v)
}

// Send broadcasts the perMsg least known values.
func (nd *valueNode) Send(int) dynnet.Message {
	if len(nd.known) == 0 {
		return nil
	}
	return ValuesMsg{Width: nd.width, Values: slices.Clone(nd.known[:min(nd.perMsg, len(nd.known))])}
}

// Receive merges heard values.
func (nd *valueNode) Receive(_ int, msgs []dynnet.Message) {
	for _, msg := range msgs {
		if vm, ok := msg.(ValuesMsg); ok {
			for _, v := range vm.Values {
				nd.add(v)
			}
		}
	}
}

// flood runs one phase of rounds rounds of value flooding from own[i] at
// node i and returns what each node kept, ascending.
func flood(s *dynnet.Session, own [][]uint64, keep, perMsg, width, rounds int) ([][]uint64, error) {
	nodes := make([]*valueNode, len(own))
	for i, vals := range own {
		nodes[i] = &valueNode{keep: keep, perMsg: perMsg, width: width}
		for _, v := range vals {
			nodes[i].add(v)
		}
	}
	if err := dynnet.Run(s, nodes, rounds); err != nil {
		return nil, err
	}
	kept := make([][]uint64, len(nodes))
	for i, nd := range nodes {
		kept[i] = nd.known
	}
	return kept, nil
}

// FloodMax floods the maximum of the nodes' values for rounds rounds, one
// width-bit value a node a round, and returns the largest value each
// node heard (the global maximum at every node once rounds covers the
// dynamic diameter, n-1 on always-connected dynamics). Callers pack
// (count, id) or similar orderings into the value. It is the
// least-values flood of the complements: max v = ^min ^v.
func FloodMax(s *dynnet.Session, own []uint64, width, rounds int) ([]uint64, error) {
	comp := make([][]uint64, len(own))
	for i, v := range own {
		comp[i] = []uint64{^v}
	}
	kept, err := flood(s, comp, 1, 1, width, rounds)
	if err != nil {
		return nil, err
	}
	best := make([]uint64, len(kept))
	for i, k := range kept {
		best[i] = ^k[0]
	}
	return best, nil
}

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
		open := make([][]uint64, n)
		for i := range open {
			for _, v := range own[i] {
				if !inFinal[v] {
					open[i] = append(open[i], v)
				}
			}
		}
		kept, err := flood(s, open, perMsg, perMsg, width, phaseLen)
		if err != nil {
			return nil, err
		}
		chosen := kept[0]
		for _, other := range kept[1:] {
			if !slices.Equal(other, chosen) {
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

// PackCountID packs a (count, node ID) pair so that uint64 ordering is
// "higher count wins; ties to the lower ID", as used to identify the
// node with the maximum token count after random-forward.
func PackCountID(count, id, n int) uint64 {
	return uint64(count)<<32 | uint64(uint32(n-1-id))
}

// UnpackCountID reverses PackCountID.
func UnpackCountID(v uint64, n int) (count, id int) {
	return int(v >> 32), n - 1 - int(uint32(v))
}
