package dissem

import (
	"fmt"

	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// blockPlan fixes the block geometry Section 7 uses to beat the
// coefficient overhead: tokens are grouped into blocks of roughly b/2
// bits so that a message carries one coded block plus one coefficient
// per block, i.e. numBlocks + blockBits <= b. The per-iteration
// throughput is then m*numBlocks ~ b^2/d tokens.
type blockPlan struct {
	// m is the token capacity of one block.
	m int
	// blockBits is the wire size of one (padded) block.
	blockBits int
	// numBlocks is the number of blocks coded together per broadcast,
	// which is also the coefficient dimension.
	numBlocks int
}

// capacity returns the tokens deliverable per coded broadcast.
func (bp blockPlan) capacity() int { return bp.m * bp.numBlocks }

// planBlocks computes the geometry for budget b and token size d.
func planBlocks(b, d int) (blockPlan, error) {
	m := token.TokensPerBlock(b/2, d)
	if m < 1 {
		m = 1
	}
	bits := token.BlockBits(m, d)
	numBlocks := b - bits
	if numBlocks < 1 {
		return blockPlan{}, fmt.Errorf("dissem: budget b=%d too small to code even one d=%d block (needs %d bits + coefficients)", b, d, bits)
	}
	return blockPlan{m: m, blockBits: bits, numBlocks: numBlocks}, nil
}

// usedBlocks returns the coefficient dimension for broadcasting count
// gathered tokens: enough blocks to hold them, capped at the budget's
// block space. All nodes can compute it because the gathered count is
// flooded during identification.
func (bp blockPlan) usedBlocks(count int) int {
	if count > bp.capacity() {
		count = bp.capacity()
	}
	blocks := (count + bp.m - 1) / bp.m
	if blocks < 1 {
		blocks = 1
	}
	return blocks
}

// packLeaderBlocks packs up to blocks*m of the leader's unbroadcast
// tokens into exactly blocks blocks of m tokens, each zero-padded to
// payloadBits (the tail padded with empty blocks so the coefficient
// dimension is fixed and known to everyone).
func (st *state) packLeaderBlocks(leader, m, d, blocks, payloadBits int) ([]rlnc.Coded, error) {
	chosen := st.unbroadcast(leader, blocks*m)
	initial := make([]rlnc.Coded, blocks)
	for blk := range initial {
		lo, hi := min(blk*m, len(chosen)), min((blk+1)*m, len(chosen))
		packed, err := token.PackBlock(chosen[lo:hi], m, d)
		if err != nil {
			return nil, err
		}
		padded := gf.NewBitVec(payloadBits)
		packed.CopyInto(padded, 0)
		initial[blk] = rlnc.Encode(blk, blocks, padded)
	}
	return initial, nil
}

// A broadcast ships the gathered tokens of the node random-forward
// identified to everyone, and delivers them.
type broadcast func(s *dynnet.Session, st *state, res forwarding.RandomForwardResult) error

// gathered is the step the three gathering-based algorithms share:
// gather with random-forward (2n rounds), identify a node with the
// maximum count of unbroadcast tokens (n rounds), and hand it to the
// broadcast, the one place they differ.
func gathered(p Params, ship broadcast) (step, error) {
	c, err := forwarding.TokensPerMessage(p.B, p.D)
	if err != nil {
		return nil, err
	}
	return func(s *dynnet.Session, st *state) (bool, error) {
		res, err := forwarding.RandomForward(s, st.sets, st.eligible, c, 2*s.N(), st.rngs)
		if err != nil || res.Count == 0 {
			return false, err
		}
		return true, ship(s, st, res)
	}, nil
}

// greedyBroadcast is the Theorem 7.3 broadcast: the identified node packs
// up to b^2/d of its tokens into blocks and one O(n)-round network-coded
// indexed broadcast delivers them.
func greedyBroadcast(plan blockPlan, d int) broadcast {
	return func(s *dynnet.Session, st *state, res forwarding.RandomForwardResult) error {
		blocks := plan.usedBlocks(res.Count)
		packed, err := st.packLeaderBlocks(res.Identified, plan.m, d, blocks, plan.blockBits)
		if err != nil {
			return err
		}
		initial := make([][]rlnc.Coded, s.N())
		initial[res.Identified] = packed
		payloads, err := codedBroadcast(s, st, blocks, plan.blockBits, initial)
		if err != nil {
			return err
		}
		return st.deliverBlocks(payloads, plan.m, d)
	}
}

// GreedyForward is the Theorem 7.3 algorithm: while tokens remain,
// gather, identify, and let the identified node broadcast up to b^2/d
// tokens. Total: O(nkd/b^2 + nb) rounds.
func GreedyForward(dist token.Distribution, p Params, adv dynnet.Adversary) (Result, error) {
	plan, err := planBlocks(p.B, p.D)
	if err != nil {
		return Result{}, err
	}
	next, err := gathered(p, greedyBroadcast(plan, p.D))
	if err != nil {
		return Result{}, err
	}
	return disseminate("greedy", dist, p, adv, next)
}
