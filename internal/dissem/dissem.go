// Package dissem implements the paper's k-token dissemination algorithms
// (Section 7), which bridge from the indexed-broadcast primitive of
// Lemma 5.3 to the full problem where tokens start unindexed and
// scattered:
//
//   - Naive (Corollary 7.1): flood the smallest token UIDs to establish
//     an indexing, then network-code those tokens; O((log n / d)·nkd/b).
//   - GreedyForward (Theorem 7.3): gather tokens at one node with
//     random-forward, then code b^2/d tokens per O(n)-round phase;
//     O(nkd/b^2 + nb).
//   - PriorityForward (Theorem 7.5): when gathering stalls, group tokens
//     into blocks, select Theta(b) random blocks by flooding the lowest
//     random priorities, and code the selected blocks.
//
// together with the T-stable variant of Theorem 2.4, which ships each
// gathered batch through Section 8's share-pass-share broadcast.
//
// The four are one loop (disseminate) around one step each: the loop
// owns the per-node state, the dynnet.Session whose round and bit costs
// accumulate over every phase, the iteration guard and the final check
// that every node holds every token; a step runs the phases of one
// iteration and delivers what they decoded. Three of the steps start by
// gathering (gathered) and differ only in how the gathered node's tokens
// are broadcast.
package dissem

import (
	"fmt"
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/token"
)

// Params configures a dissemination run.
type Params struct {
	// B is the message budget in bits (b in the paper).
	B int
	// D is the token payload size in bits (d in the paper).
	D int
	// Seed feeds all node randomness deterministically.
	Seed int64
}

// Result reports the cost of a dissemination run.
type Result struct {
	// Rounds is the total rounds across all phases.
	Rounds int
	// Bits is the total bits broadcast.
	Bits int64
	// Messages is the number of broadcasts.
	Messages int
	// Iterations is the number of outer-loop iterations the driver ran.
	Iterations int
}

// state is the shared per-run bookkeeping: each node's token knowledge
// plus the set of tokens already disseminated. Because every broadcast
// phase delivers the same decoded tokens to every node, the broadcast
// set is common knowledge and is kept once.
type state struct {
	sets        []*token.Set
	broadcasted map[token.UID]bool
	k           int
	rngs        []*rand.Rand
}

func newState(dist token.Distribution, seed int64) *state {
	st := &state{
		sets:        make([]*token.Set, len(dist)),
		broadcasted: make(map[token.UID]bool),
		k:           dist.K(),
		rngs:        make([]*rand.Rand, len(dist)),
	}
	for i, ts := range dist {
		st.sets[i] = token.NewSet()
		for _, t := range ts {
			st.sets[i].Add(t)
		}
		st.rngs[i] = rand.New(rand.NewSource(seed + int64(i)*0x9e3779b9 + 7))
	}
	return st
}

func (st *state) eligible(u token.UID) bool { return !st.broadcasted[u] }

func (st *state) remaining() int { return st.k - len(st.broadcasted) }

// unbroadcast returns node i's tokens still in consideration, in UID
// order, at most limit of them (all when limit < 0).
func (st *state) unbroadcast(i, limit int) []token.Token {
	var out []token.Token
	for _, t := range st.sets[i].Tokens() {
		if len(out) == limit {
			break
		}
		if st.eligible(t.UID) {
			out = append(out, t)
		}
	}
	return out
}

// deliver records that tokens were decoded by every node: they join
// every knowledge set and the broadcast set.
func (st *state) deliver(ts []token.Token) {
	for _, t := range ts {
		st.broadcasted[t.UID] = true
		for _, set := range st.sets {
			set.Add(t)
		}
	}
}

// deliverBlocks unpacks decoded blocks of m d-bit tokens each (zero
// padded to whatever payload size the broadcast used) and delivers the
// tokens in them.
func (st *state) deliverBlocks(payloads []gf.BitVec, m, d int) error {
	var delivered []token.Token
	want := token.BlockBits(m, d)
	for _, pb := range payloads {
		if pb.Len() > want {
			pb = pb.Slice(0, want)
		}
		ts, err := token.UnpackBlock(pb, m, d)
		if err != nil {
			return fmt.Errorf("dissem: decoded block corrupt: %w", err)
		}
		delivered = append(delivered, ts...)
	}
	st.deliver(delivered)
	return nil
}

// verify checks that every node knows every token of the distribution.
func (st *state) verify(dist token.Distribution) error {
	for i, set := range st.sets {
		if err := dist.HeldBy(set); err != nil {
			return fmt.Errorf("dissem: node %d: %w", i, err)
		}
	}
	return nil
}

// A step runs the phases of one iteration on the session and delivers
// what they decoded. It reports false when no node holds an unbroadcast
// token any more, which ends the run.
type step func(s *dynnet.Session, st *state) (bool, error)

// disseminate is the loop every algorithm shares: iterate the step until
// all k tokens are broadcast, then verify every node's knowledge against
// the distribution.
func disseminate(name string, dist token.Distribution, p Params, adv dynnet.Adversary, next step) (Result, error) {
	st := newState(dist, p.Seed)
	s := dynnet.NewSession(len(dist), adv, dynnet.Config{BitBudget: p.B})
	// Every productive iteration broadcasts at least one token, so k
	// would do; the cap is a generous safety net against a step that
	// stops making progress.
	iters, maxIters := 0, 20*st.k+200
	for st.remaining() > 0 {
		if iters++; iters > maxIters {
			return Result{}, fmt.Errorf("dissem: %s exceeded %d iterations", name, maxIters)
		}
		more, err := next(s, st)
		if err != nil {
			return Result{}, err
		}
		if !more {
			break
		}
	}
	if err := st.verify(dist); err != nil {
		return Result{}, err
	}
	m := s.Metrics()
	return Result{Rounds: m.Rounds, Bits: m.Bits, Messages: m.Messages, Iterations: iters}, nil
}

// codedBroadcast runs one Lemma 5.3 indexed-broadcast phase over the
// session: node i injects initial[i], everyone mixes for the schedule,
// and the decoded payloads are returned (they are identical at every
// node whenever decoding succeeds, which the phase requires of node 0
// and spot-checks elsewhere).
func codedBroadcast(
	s *dynnet.Session,
	st *state,
	kDims, payloadBits int,
	initial [][]rlnc.Coded,
) ([]gf.BitVec, error) {
	nodes, err := rlnc.IndexedBroadcast(s, kDims, payloadBits, initial, st.rngs, rlnc.DefaultSchedule(s.N(), kDims), false)
	if err != nil {
		return nil, err
	}
	// Node 0's payloads are the phase output; the other nodes only need
	// the full-coefficient-rank check (CanDecode guarantees Decode
	// succeeds), which avoids materializing n*k payload copies.
	payloads, err := nodes[0].Span().Decode()
	if err != nil {
		return nil, fmt.Errorf("dissem: coded broadcast: node 0 failed to decode: %w", err)
	}
	for i, nd := range nodes[1:] {
		if !nd.Span().CanDecode() {
			return nil, fmt.Errorf("dissem: coded broadcast: node %d failed to decode: rank %d of %d",
				i+1, nd.Span().Rank(), kDims)
		}
	}
	return payloads, nil
}
