package rlnc

import (
	"fmt"
	"math/rand"

	"repro/internal/dynnet"
)

// BroadcastNode is the k-indexed-broadcast algorithm of Lemma 5.3 as a
// dynnet.Node: every round it broadcasts a fresh random linear
// combination of everything received so far and inserts whatever it
// hears. How long it runs is its phase's schedule — the paper's
// algorithms are Las Vegas with deterministic stopping schedules of
// Theta(n + k) rounds — after which the caller decodes.
type BroadcastNode struct {
	span *Span
	rng  *rand.Rand
	// scratch is the reused Send combination: the session collects every
	// node's message before any delivery, and receivers copy the vector
	// into their span, so one buffer per node is safe for a round.
	scratch Coded
}

var _ dynnet.Node = (*BroadcastNode)(nil)

// NewBroadcastNode returns a node for k tokens with payloadBits payload,
// holding the given initial coded vectors (one per token it starts
// with).
func NewBroadcastNode(k, payloadBits int, initial []Coded, rng *rand.Rand) *BroadcastNode {
	n := &BroadcastNode{span: NewSpan(k, payloadBits), rng: rng}
	for _, c := range initial {
		n.span.Add(c)
	}
	return n
}

// Span exposes the node's coding state (used by decoders and the
// adaptive adversaries that inspect node knowledge).
func (n *BroadcastNode) Span() *Span { return n.span }

// Send broadcasts a random combination of the received subspace, or
// nothing if the node has heard nothing yet. The returned message
// points at a per-node scratch buffer that is valid until the node's
// next Send; the session's collect-then-deliver round structure
// guarantees every receiver has copied it by then.
func (n *BroadcastNode) Send(int) dynnet.Message {
	if !n.span.CombineInto(&n.scratch, n.rng) {
		return nil
	}
	return &n.scratch
}

// Receive inserts every received combination into the span. Both Coded
// values and the *Coded scratch views produced by Send are accepted.
func (n *BroadcastNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		switch c := m.(type) {
		case Coded:
			n.span.Add(c)
		case *Coded:
			n.span.Add(*c)
		}
	}
}

// DefaultSchedule returns the Theta(n + k) stopping schedule used by
// Lemma 5.3. The constant is an implementation artifact; correctness is
// checked by the tests, which fail if the schedule is too aggressive.
func DefaultSchedule(n, k int) int { return 4*(n+k) + 16 }

// IndexedBroadcast is the one wiring of Lemma 5.3: node i starts with
// the coded vectors initial[i] and mixes with rngs[i], and all run as one
// phase of s — for exactly rounds rounds when stop is nil, or else round
// by round until stop, called with the nodes after every round, says to
// stop, rounds then being the cap whose exhaustion is an error. It
// returns the nodes for the caller to decode; s.Round() tells how long
// it took.
func IndexedBroadcast(
	s *dynnet.Session,
	k, payloadBits int,
	initial [][]Coded,
	rngs []*rand.Rand,
	rounds int,
	stop func([]*BroadcastNode) bool,
) ([]*BroadcastNode, error) {
	nodes := make([]*BroadcastNode, len(initial))
	for i := range nodes {
		nodes[i] = NewBroadcastNode(k, payloadBits, initial[i], rngs[i])
	}
	if stop == nil {
		return nodes, dynnet.Run(s, nodes, rounds)
	}
	for r := 0; r < rounds; r++ {
		if err := dynnet.Run(s, nodes, 1); err != nil {
			return nil, err
		}
		if stop(nodes) {
			return nodes, nil
		}
	}
	return nil, fmt.Errorf("rlnc: indexed broadcast did not stop in %d rounds", rounds)
}

// Decoded returns IndexedBroadcast's stop function for one run: stop
// once every span has full rank. Decodability is monotone (spans only
// gain rank), so each check resumes at the first node not yet known to
// decode.
func Decoded() func([]*BroadcastNode) bool {
	decoding := 0
	return func(nodes []*BroadcastNode) bool {
		for decoding < len(nodes) && nodes[decoding].span.CanDecode() {
			decoding++
		}
		return decoding == len(nodes)
	}
}
