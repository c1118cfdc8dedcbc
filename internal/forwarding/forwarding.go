// Package forwarding implements the token-forwarding side of the paper:
// the knowledge-based pipelined flooding algorithm of Theorem 2.1 (the
// baseline network coding is measured against; one node, run on the
// theorem's schedule here and on a T-stable one by package stable), the
// random-forward gathering primitive of Section 7, and the one value
// flood (least values, FloodSmallestMulti; the maximum, FloodMax) that
// the paper's composite algorithms use for identification and indexing.
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

// floodNode is the knowledge-based token forwarding algorithm of
// Theorem 2.1, batched the way Kuhn et al.'s T-interval algorithm is:
// dissemination proceeds in periods, and within a period the node
// pipelines its batch (the batch smallest tokens it knows that are not
// finished) smallest first, c tokens a round, sending each batch token
// at most once per window of rounds, so a new window, and hence possibly
// a new topology, resends the batch from its start. At the end of a
// period it marks its batch finished. The globally smallest unfinished
// tokens are among the batch of every node that knows them, so with a
// period long enough for a batch to flood, all nodes finish the same
// tokens. With batch c and window 1 it sends the c smallest unfinished
// tokens every round: the Theorem 2.1 schedule.
type floodNode struct {
	set      *token.Set
	finished map[token.UID]bool
	sent     map[token.UID]bool // batch tokens sent this window

	c, batch, period, window, round int
}

// batchTokens returns the node's batch: the batch smallest tokens it
// knows that are not finished, in UID order.
func (f *floodNode) batchTokens() []token.Token {
	var out []token.Token
	for _, t := range f.set.Tokens() {
		if len(out) == f.batch {
			break
		}
		if !f.finished[t.UID] {
			out = append(out, t)
		}
	}
	return out
}

// Send broadcasts the next c batch tokens not yet sent this window.
func (f *floodNode) Send(int) dynnet.Message {
	var out []token.Token
	for _, t := range f.batchTokens() {
		if len(out) < f.c && !f.sent[t.UID] {
			f.sent[t.UID] = true
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return TokensMsg{Tokens: out}
}

// Receive merges neighbour tokens; at a period's end it finishes the
// batch, and at a period's or a window's end the resend filter clears.
func (f *floodNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		tm, ok := m.(TokensMsg)
		if !ok {
			continue
		}
		for _, t := range tm.Tokens {
			f.set.Add(t)
		}
	}
	f.round++
	if f.round%f.period == 0 {
		for _, t := range f.batchTokens() {
			f.finished[t.UID] = true
		}
	}
	if f.round%f.period == 0 || f.round%f.window == 0 {
		clear(f.sent)
	}
}

// RunBatchedFlood runs the knowledge-based flooding baseline end to end
// for a distribution of k tokens and verifies every node learned every
// token. schedule maps the node count n and the tokens per message c to
// the node's batch, period and window; ceil(k/batch) periods are the
// whole run. It returns the number of rounds executed.
func RunBatchedFlood(dist token.Distribution, k, b, d int, adv dynnet.Adversary, schedule func(n, c int) (batch, period, window int)) (int, error) {
	n := len(dist)
	c, err := TokensPerMessage(b, d)
	if err != nil {
		return 0, err
	}
	batch, period, window := schedule(n, c)
	nodes := make([]*floodNode, n)
	for i := range nodes {
		set := token.NewSet()
		for _, t := range dist[i] {
			set.Add(t)
		}
		nodes[i] = &floodNode{set: set, finished: make(map[token.UID]bool, k), sent: make(map[token.UID]bool, batch),
			c: c, batch: batch, period: period, window: window}
	}
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: b})
	if err := dynnet.Run(s, nodes, (k+batch-1)/batch*period); err != nil {
		return s.Round(), err
	}
	for i, nd := range nodes {
		if err := dist.HeldBy(nd.set); err != nil {
			return s.Round(), fmt.Errorf("forwarding: node %d: %w", i, err)
		}
	}
	return s.Round(), nil
}

// RunPipelinedFlood executes the Theorem 2.1 baseline: phases of n
// rounds, in each of which every node broadcasts the c = b/(d+log n)
// smallest tokens it knows that are not finished, and at whose end it
// finishes them. The c globally smallest unfinished tokens flood
// completely within a phase, so all nodes finish consistently, and
// ceil(k/c) phases disseminate all k tokens.
func RunPipelinedFlood(dist token.Distribution, k, b, d int, adv dynnet.Adversary) (int, error) {
	return RunBatchedFlood(dist, k, b, d, adv, func(n, c int) (int, int, int) { return c, n, 1 })
}
