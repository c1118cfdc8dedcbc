// Package forwarding implements the token-forwarding side of the paper:
// the knowledge-based pipelined flooding algorithm of Theorem 2.1 (the
// baseline network coding is measured against), the random-forward
// gathering primitive of Section 7, and the flooding building blocks
// (max aggregation, smallest-values dissemination) that the paper's
// composite algorithms use for identification and indexing.
package forwarding

import (
	"fmt"

	"repro/internal/dynnet"
	"repro/internal/token"
)

// TokensMsg is a broadcast carrying whole tokens, the only message type
// token-forwarding algorithms use. Its wire size is what Theorem 2.1
// charges: each token costs its payload plus its O(log n)-bit UID.
type TokensMsg struct {
	Tokens []token.Token
}

// Bits returns the message size: a count field plus each token's UID and
// payload.
func (m TokensMsg) Bits() int {
	bits := token.CountBits
	for _, t := range m.Tokens {
		bits += t.Bits()
	}
	return bits
}

// ValuesMsg is a broadcast carrying fixed-width opaque values (UIDs,
// priorities, counts) used by the flooding subroutines.
type ValuesMsg struct {
	// Width is the per-value size in bits.
	Width  int
	Values []uint64
}

// Bits returns the message size.
func (m ValuesMsg) Bits() int { return token.CountBits + m.Width*len(m.Values) }

// TokensPerMessage returns how many (UID + payload) tokens fit into a
// b-bit message for payload size d. It errors if not even one fits,
// which corresponds to violating the model requirement b >= d + log n.
func TokensPerMessage(b, d int) (int, error) {
	c := token.TokensPerBlock(b, d)
	if c < 1 {
		return 0, fmt.Errorf("forwarding: budget %d bits cannot carry a d=%d token with its UID", b, d)
	}
	return c, nil
}

// smallestUnfinished returns the (up to) limit smallest-UID tokens of
// set that are not yet finished, in UID order.
func smallestUnfinished(set *token.Set, finished map[token.UID]bool, limit int) []token.Token {
	all := set.Tokens() // sorted by UID
	out := make([]token.Token, 0, limit)
	for _, t := range all {
		if finished[t.UID] {
			continue
		}
		out = append(out, t)
		if len(out) == limit {
			break
		}
	}
	return out
}

// PipelinedFloodNode is the deterministic knowledge-based token
// forwarding algorithm of Theorem 2.1: dissemination proceeds in phases
// of n rounds; within a phase every node broadcasts the c = b/(d+log n)
// smallest not-yet-finished tokens it knows, and at the end of the phase
// all nodes mark the c smallest tokens they know as finished. Because
// the c globally smallest unfinished tokens are always among the c
// smallest at every node that knows them, they flood completely within a
// phase, so all nodes finish consistently. Total time: ceil(k/c) phases.
type PipelinedFloodNode struct {
	set      *token.Set
	finished map[token.UID]bool
	n        int
	c        int
	round    int
}

var _ dynnet.Node = (*PipelinedFloodNode)(nil)

// NewPipelinedFloodNode returns a node for an n-node network
// disseminating k tokens, c tokens per message, starting with the given
// tokens. The set is owned by the node afterwards.
func NewPipelinedFloodNode(n, k, c int, initial []token.Token) *PipelinedFloodNode {
	set := token.NewSet()
	for _, t := range initial {
		set.Add(t)
	}
	return &PipelinedFloodNode{
		set:      set,
		finished: make(map[token.UID]bool, k),
		n:        n,
		c:        c,
	}
}

// Set exposes the node's token knowledge.
func (p *PipelinedFloodNode) Set() *token.Set { return p.set }

// Send broadcasts the c smallest unfinished tokens the node knows.
func (p *PipelinedFloodNode) Send(int) dynnet.Message {
	ts := smallestUnfinished(p.set, p.finished, p.c)
	if len(ts) == 0 {
		return nil
	}
	return TokensMsg{Tokens: ts}
}

// Receive merges neighbour tokens; at phase end it finalizes the c
// smallest known unfinished tokens.
func (p *PipelinedFloodNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		tm, ok := m.(TokensMsg)
		if !ok {
			continue
		}
		for _, t := range tm.Tokens {
			p.set.Add(t)
		}
	}
	p.round++
	if p.round%p.n == 0 {
		for _, t := range smallestUnfinished(p.set, p.finished, p.c) {
			p.finished[t.UID] = true
		}
	}
}

// RunPipelinedFlood executes the Theorem 2.1 baseline end to end for a
// distribution of k tokens and verifies every node learned every token.
// It returns the number of rounds executed.
func RunPipelinedFlood(dist token.Distribution, k, b, d int, adv dynnet.Adversary) (int, error) {
	n := len(dist)
	c, err := TokensPerMessage(b, d)
	if err != nil {
		return 0, err
	}
	nodes := make([]*PipelinedFloodNode, n)
	for i := range nodes {
		nodes[i] = NewPipelinedFloodNode(n, k, c, dist[i])
	}
	// ceil(k/c) phases of n rounds, c tokens finalized per phase.
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: b})
	if err := dynnet.Run(s, nodes, (k+c-1)/c*n); err != nil {
		return s.Round(), err
	}
	for i, nd := range nodes {
		if err := dist.HeldBy(nd.Set()); err != nil {
			return s.Round(), fmt.Errorf("forwarding: node %d: %w", i, err)
		}
	}
	return s.Round(), nil
}
