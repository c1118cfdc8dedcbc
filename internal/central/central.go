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
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
)

// Message is a coded broadcast whose coefficients travel out of band
// (reconstructed from shared randomness and topology history). Only the
// payload is charged against the budget.
type Message struct {
	// Coded is the full vector; its coefficient prefix is carried for
	// simulation fidelity but not charged.
	Coded rlnc.Coded
}

// Bits charges the payload only.
func (m Message) Bits() int { return m.Coded.PayloadBits() }

// Node is the centralized counterpart of rlnc.BroadcastNode: identical
// coding state, header-free messages.
type Node struct {
	span *rlnc.Span
	rng  *rand.Rand
}

var _ dynnet.Node = (*Node)(nil)

// NewNode returns a centralized coding node. The rng models the shared
// randomness source: the driver seeds all nodes from one stream.
func NewNode(k, payloadBits int, initial []rlnc.Coded, rng *rand.Rand) *Node {
	n := &Node{span: rlnc.NewSpan(k, payloadBits), rng: rng}
	for _, c := range initial {
		n.span.Add(c)
	}
	return n
}

// Span exposes the coding state.
func (n *Node) Span() *rlnc.Span { return n.span }

// Send broadcasts a random combination, header-free.
func (n *Node) Send(int) dynnet.Message {
	c, ok := n.span.Combine(n.rng)
	if !ok {
		return nil
	}
	return Message{Coded: c}
}

// Receive inserts every heard combination.
func (n *Node) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		if cm, ok := m.(Message); ok {
			n.span.Add(cm.Coded)
		}
	}
}

// Run executes Corollary 2.6's randomized centralized k-indexed
// broadcast: one token per node for i < k, message budget exactly d
// bits, schedule Theta(n + k). It returns the rounds executed and
// verifies every node decoded every payload.
func Run(n, k, d int, adv dynnet.Adversary, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	payloads := make([]gf.BitVec, k)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		var initial []rlnc.Coded
		if i < k {
			payloads[i] = gf.RandomBitVec(d, rng.Uint64)
			initial = []rlnc.Coded{rlnc.Encode(i, k, payloads[i])}
		}
		nrng := rand.New(rand.NewSource(seed + 7919*int64(i+1)))
		nodes[i] = NewNode(k, d, initial, nrng)
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: d})
	if err := dynnet.Run(s, nodes, rlnc.DefaultSchedule(n, k)); err != nil {
		return s.Round(), err
	}
	for i, nd := range nodes {
		got, err := nd.Span().Decode()
		if err != nil {
			return s.Round(), fmt.Errorf("central: node %d: %w", i, err)
		}
		for j := range payloads {
			if !got[j].Equal(payloads[j]) {
				return s.Round(), fmt.Errorf("central: node %d decoded token %d incorrectly", i, j)
			}
		}
	}
	return s.Round(), nil
}
