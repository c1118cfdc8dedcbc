package dissem

import (
	"fmt"

	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// priorityValue packs (random priority, owner, block index) so that
// uint64 ordering selects uniformly random blocks while staying unique
// and decodable to the owning node.
func priorityValue(prio uint32, owner, idx int) uint64 {
	return uint64(prio&0xffffff)<<40 | uint64(uint16(owner))<<24 | uint64(idx&0xffffff)
}

func priorityOwnerIdx(v uint64) (owner, idx int) {
	return int(uint16(v >> 24)), int(v & 0xffffff)
}

// PriorityForward is the Theorem 7.5 algorithm. Each iteration:
// gather with random-forward; if some node gathered a full b^2/d batch,
// do a greedy broadcast; otherwise every node groups its unbroadcast
// tokens into blocks of ~b/2 bits, assigns each block a random priority,
// the network floods the numBlocks smallest priorities to select and
// index Theta(b) random blocks, and the selected blocks are broadcast
// with network-coded indexed broadcast. The random selection guarantees
// every token's copy count decays geometrically (Lemma 7.4).
func PriorityForward(dist token.Distribution, p Params, adv dynnet.Adversary) (Result, error) {
	plan, err := planBlocks(p.B, p.D)
	if err != nil {
		return Result{}, err
	}
	perMsg := (p.B - token.CountBits) / 64
	if perMsg < 1 {
		return Result{}, fmt.Errorf("dissem: budget b=%d cannot flood 64-bit priorities", p.B)
	}
	greedy := greedyBroadcast(plan, p.D)
	next, err := gathered(p, func(s *dynnet.Session, st *state, res forwarding.RandomForwardResult) error {
		if res.Count >= plan.capacity() {
			// Gathering still works: use the greedy step.
			return greedy(s, st, res)
		}

		// Priority step. Every node chunks its eligible tokens into
		// blocks of m and draws a random priority per block.
		n := s.N()
		blocks := make([][][]token.Token, n) // node -> block idx -> tokens
		own := make([][]uint64, n)
		for i := range blocks {
			eligible := st.unbroadcast(i, -1)
			for lo := 0; lo < len(eligible); lo += plan.m {
				idx := len(blocks[i])
				blocks[i] = append(blocks[i], eligible[lo:min(lo+plan.m, len(eligible))])
				own[i] = append(own[i], priorityValue(st.rngs[i].Uint32(), i, idx))
			}
		}

		chosen, err := forwarding.FloodSmallestMulti(s, own, plan.numBlocks, perMsg, 64, n)
		if err != nil {
			return err
		}
		if len(chosen) == 0 {
			return fmt.Errorf("dissem: priority: tokens remain but no blocks selected")
		}

		// Selected blocks are indexed by their position in the chosen
		// list; owners inject them.
		kDims := len(chosen)
		initial := make([][]rlnc.Coded, n)
		for slot, v := range chosen {
			owner, idx := priorityOwnerIdx(v)
			if owner >= n || idx >= len(blocks[owner]) {
				return fmt.Errorf("dissem: priority: chosen value decodes to unknown block (%d,%d)", owner, idx)
			}
			packed, err := token.PackBlock(blocks[owner][idx], plan.m, p.D)
			if err != nil {
				return err
			}
			initial[owner] = append(initial[owner], rlnc.Encode(slot, kDims, packed))
		}
		payloads, err := codedBroadcast(s, st, kDims, plan.blockBits, initial)
		if err != nil {
			return err
		}
		return st.deliverBlocks(payloads, plan.m, p.D)
	})
	if err != nil {
		return Result{}, err
	}
	return disseminate("priority", dist, p, adv, next)
}
