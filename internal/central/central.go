// Package central implements the centralized network-coding algorithms
// of Corollary 2.6. A centralized algorithm may give every node
// knowledge of past topologies and a source of shared randomness; under
// those powers the coefficient header of a coded message is redundant —
// every receiver can reconstruct the coefficients by replaying the
// shared randomness against the known topology history — so messages
// cost only their d payload bits. This removes the header overhead that
// throttles distributed coding at small b and yields the corollary's
// order-optimal Theta(n) dissemination with b = d.
package central

import (
	"fmt"
	"slices"

	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/keyed"
	"repro/internal/rlnc"
)

// Message is a coded broadcast whose coefficients travel out of band
// (reconstructed from shared randomness and topology history). Only the
// payload is charged against the budget.
type Message struct {
	// Coded is the sender's scratch vector until its next Send; its
	// coefficient prefix is carried for simulation fidelity, not charged.
	Coded *rlnc.Coded
}

// Bits charges the payload only.
func (m Message) Bits() int { return m.Coded.PayloadBits() }

// node is Lemma 5.3's node with its coefficient header sent out of
// band: the same span and coins, header-free messages.
type node struct{ *rlnc.BroadcastNode }

// Send wraps the embedded node's combination in a Message.
func (n node) Send(round int) dynnet.Message {
	c, ok := n.BroadcastNode.Send(round).(*rlnc.Coded)
	if !ok {
		return nil
	}
	return Message{Coded: c}
}

// Receive hands every heard vector on to the embedded node. The inbox
// is the session's per-round scratch, so its entries may be rewritten.
func (n node) Receive(round int, msgs []dynnet.Message) {
	for i, m := range msgs {
		if cm, ok := m.(Message); ok {
			msgs[i] = cm.Coded
		}
	}
	n.BroadcastNode.Receive(round, msgs)
}

// Run executes Corollary 2.6's randomized centralized k-indexed
// broadcast: one token per node for i < k, message budget exactly d
// bits, one-round phases until every span decodes, an error past Lemma
// 5.3's Theta(n + k) schedule. It returns the rounds executed and
// verifies every node decoded every payload.
func Run(n, k, d int, adv dynnet.Adversary, seed int64) (int, error) {
	rng := keyed.Rand(seed, keyed.Payloads)
	payloads := make([]gf.BitVec, k)
	bns := make([]*rlnc.BroadcastNode, n)
	nodes := make([]node, n)
	for i := range nodes {
		var initial []rlnc.Coded
		if i < k {
			payloads[i] = gf.RandomBitVec(d, rng.Uint64)
			initial = []rlnc.Coded{rlnc.Encode(i, k, payloads[i])}
		}
		bns[i] = rlnc.NewBroadcastNode(k, d, initial, keyed.Rand(seed, keyed.Coins, int64(i)))
		nodes[i] = node{bns[i]}
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: d})
	decoded, limit := rlnc.Decoded(), rlnc.DefaultSchedule(n, k)
	for !decoded(bns) {
		if s.Round() == limit {
			return s.Round(), fmt.Errorf("central: not decoded in %d rounds", limit)
		}
		if err := dynnet.Run(s, nodes, 1); err != nil {
			return s.Round(), err
		}
	}
	for i, nd := range bns {
		got, err := nd.Span().Decode()
		if err != nil {
			return s.Round(), fmt.Errorf("central: node %d: %w", i, err)
		}
		if !slices.EqualFunc(got, payloads, gf.BitVec.Equal) {
			return s.Round(), fmt.Errorf("central: node %d decoded its tokens incorrectly", i)
		}
	}
	return s.Round(), nil
}
