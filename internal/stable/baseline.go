package stable

import (
	"fmt"

	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/token"
)

// The T-stable token-forwarding baseline (the Theorem 2.1 algorithm
// generalized to exploit stability the way Kuhn et al.'s T-interval
// algorithm does): tokens are processed in batches of cT/2, where c is
// the tokens-per-message capacity. Within each stability window, nodes
// pipeline the current batch smallest-first, resending from the start of
// the batch whenever the window (and hence possibly the topology)
// changes. Because every batch token reaches distance T - batch rank
// within one window, the set of nodes knowing the whole batch grows by
// Theta(T) per window, so a batch completes in O(n/T) windows = O(n)
// rounds, and all k tokens take O(nk/(cT) + ...) rounds — the linear-in-T
// speedup that Theorem 2.1 proves optimal for knowledge-based token
// forwarding.

// FloodNode is one participant in the batched baseline.
type FloodNode struct {
	set       *token.Set
	finished  map[token.UID]bool
	sentBatch map[token.UID]bool
	c         int
	t         int
	batchSize int
	period    int // rounds per batch
	round     int
}

var _ dynnet.Node = (*FloodNode)(nil)

// NewFloodNode returns a baseline node for an n-node network and k
// tokens, sending c tokens per message with stability parameter t.
func NewFloodNode(n, k, c, t int, initial []token.Token) *FloodNode {
	set := token.NewSet()
	for _, tk := range initial {
		set.Add(tk)
	}
	batchSize, period := floodBatching(n, c, t)
	return &FloodNode{
		set:       set,
		finished:  make(map[token.UID]bool, k),
		sentBatch: make(map[token.UID]bool, batchSize),
		c:         c,
		t:         t,
		batchSize: batchSize,
		period:    period,
	}
}

// Set exposes the node's knowledge.
func (f *FloodNode) Set() *token.Set { return f.set }

// floodBatching returns the baseline's batch size in tokens and the
// rounds it spends per batch; ceil(k/batchSize) periods are the whole
// schedule.
func floodBatching(n, c, t int) (batchSize, period int) {
	batchSize = max(c*t/2, c)
	// ceil(2n/T)+2 windows of T rounds each: enough for the know-all
	// frontier to cross the network at Theta(T) nodes per window.
	windows := (2*n+t-1)/t + 2
	return batchSize, windows * t
}

// batch returns the current batch: the batchSize smallest unfinished
// tokens the node knows.
func (f *FloodNode) batch() []token.Token {
	var out []token.Token
	for _, tk := range f.set.Tokens() {
		if f.finished[tk.UID] {
			continue
		}
		out = append(out, tk)
		if len(out) == f.batchSize {
			break
		}
	}
	return out
}

// Send broadcasts the next c batch tokens not yet sent this window.
func (f *FloodNode) Send(int) dynnet.Message {
	var out []token.Token
	for _, tk := range f.batch() {
		if f.sentBatch[tk.UID] {
			continue
		}
		out = append(out, tk)
		if len(out) == f.c {
			break
		}
	}
	if len(out) == 0 {
		return nil
	}
	for _, tk := range out {
		f.sentBatch[tk.UID] = true
	}
	return forwarding.TokensMsg{Tokens: out}
}

// Receive merges tokens; at window boundaries the resend filter resets,
// and at batch boundaries the batch is finalized.
func (f *FloodNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		tm, ok := m.(forwarding.TokensMsg)
		if !ok {
			continue
		}
		for _, tk := range tm.Tokens {
			f.set.Add(tk)
		}
	}
	f.round++
	if f.round%f.period == 0 {
		for _, tk := range f.batch() {
			f.finished[tk.UID] = true
		}
		f.sentBatch = make(map[token.UID]bool, f.batchSize)
		return
	}
	if f.round%f.t == 0 {
		f.sentBatch = make(map[token.UID]bool, f.batchSize)
	}
}

// RunFlood runs the T-stable forwarding baseline to completion on its
// deterministic schedule and verifies every node learned all k tokens.
func RunFlood(dist token.Distribution, k, b, d, t int, adv dynnet.Adversary) (int, error) {
	n := len(dist)
	c, err := forwarding.TokensPerMessage(b, d)
	if err != nil {
		return 0, err
	}
	nodes := make([]*FloodNode, n)
	for i := range nodes {
		nodes[i] = NewFloodNode(n, k, c, t, dist[i])
	}
	batchSize, period := floodBatching(n, c, t)
	s := dynnet.NewSession(n, adv, dynnet.Config{BitBudget: b})
	if err := dynnet.Run(s, nodes, (k+batchSize-1)/batchSize*period); err != nil {
		return s.Round(), err
	}
	for i, nd := range nodes {
		if err := dist.HeldBy(nd.Set()); err != nil {
			return s.Round(), fmt.Errorf("stable: baseline node %d: %w", i, err)
		}
	}
	return s.Round(), nil
}
