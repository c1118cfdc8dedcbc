package forwarding

import (
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/token"
)

// RandomForwardNode is the random-forward primitive of Section 7: every
// round the node broadcasts b/d tokens chosen uniformly at random from
// those it knows (restricted to the caller's "still in consideration"
// filter). Lemma 7.2 shows that after O(n) rounds either some node knows
// everything or some node knows at least sqrt(bk/d) tokens.
type RandomForwardNode struct {
	set      *token.Set
	eligible func(token.UID) bool
	c        int
	rng      *rand.Rand
}

var _ dynnet.Node = (*RandomForwardNode)(nil)

// NewRandomForwardNode returns a node forwarding c random eligible
// tokens per round. The set is shared state owned by
// the caller (dissemination drivers keep one token.Set per node across
// phases); eligible filters which tokens are still in consideration
// (nil means all).
func NewRandomForwardNode(set *token.Set, eligible func(token.UID) bool, c int, rng *rand.Rand) *RandomForwardNode {
	if eligible == nil {
		eligible = func(token.UID) bool { return true }
	}
	return &RandomForwardNode{set: set, eligible: eligible, c: c, rng: rng}
}

// Send broadcasts c random eligible tokens.
func (r *RandomForwardNode) Send(int) dynnet.Message {
	var pool []token.Token
	for _, t := range r.set.Tokens() {
		if r.eligible(t.UID) {
			pool = append(pool, t)
		}
	}
	if len(pool) == 0 {
		return nil
	}
	r.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	m := r.c
	if m > len(pool) {
		m = len(pool)
	}
	return TokensMsg{Tokens: pool[:m]}
}

// Receive merges every heard token into the shared set.
func (r *RandomForwardNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		tm, ok := m.(TokensMsg)
		if !ok {
			continue
		}
		for _, t := range tm.Tokens {
			r.set.Add(t)
		}
	}
}

// RandomForwardResult reports the outcome of one random-forward +
// identify execution.
type RandomForwardResult struct {
	// Identified is the node with the maximum eligible-token count
	// (ties to the lower ID), as agreed by flooding.
	Identified int
	// Count is that node's eligible-token count.
	Count int
}

// RandomForward runs the Section 7 "random-forward" algorithm as a
// phase of an existing session: forwardRounds rounds of random token
// forwarding over the shared per-node sets, then n rounds of max-count
// flooding to identify a node with the maximum eligible count. All nodes
// agree on the result.
func RandomForward(
	s *dynnet.Session,
	sets []*token.Set,
	eligible func(token.UID) bool,
	c, forwardRounds int,
	rngs []*rand.Rand,
) (RandomForwardResult, error) {
	n := s.N()
	nodes := make([]*RandomForwardNode, n)
	for i := range nodes {
		nodes[i] = NewRandomForwardNode(sets[i], eligible, c, rngs[i])
	}
	if err := dynnet.Run(s, nodes, forwardRounds); err != nil {
		return RandomForwardResult{}, err
	}

	// Identify: flood (count, id) maxima for n rounds so every node
	// learns which node holds the maximum eligible count.
	packed := make([]uint64, n)
	for i, set := range sets {
		count := 0
		for _, t := range set.Tokens() {
			if eligible == nil || eligible(t.UID) {
				count++
			}
		}
		packed[i] = PackCountID(count, i, n)
	}
	best, err := FloodMax(s, packed, 64, n)
	if err != nil {
		return RandomForwardResult{}, err
	}
	count, id := UnpackCountID(best[0], n)
	return RandomForwardResult{Identified: id, Count: count}, nil
}
