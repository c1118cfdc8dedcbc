package rlnc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/graph"
	"repro/internal/keyed"
)

// runIndexedBroadcast is one complete Lemma 5.3 execution on a session
// of its own: all nodes run the schedule against the adversary, and
// every node must decode all k payloads. It returns the rounds executed
// and each node's k decoded payloads.
func runIndexedBroadcast(initial [][]Coded, k, payloadBits, schedule int, adv dynnet.Adversary, budget int, seed int64) (int, [][]gf.BitVec, error) {
	s := dynnet.NewSession(len(initial), adv, dynnet.Config{BitBudget: budget})
	nodes, err := IndexedBroadcast(s, k, payloadBits, initial, keyed.Rands(len(initial), seed, keyed.Coins), schedule, nil)
	if err != nil {
		return s.Round(), nil, err
	}
	decoded := make([][]gf.BitVec, len(nodes))
	for i, nd := range nodes {
		if decoded[i], err = nd.Span().Decode(); err != nil {
			return s.Round(), nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return s.Round(), decoded, nil
}

// oneTokenPerNode builds the canonical Lemma 5.3 instance: node i starts
// with token i.
func oneTokenPerNode(n, d int, rng *rand.Rand) ([][]Coded, []gf.BitVec) {
	initial := make([][]Coded, n)
	payloads := make([]gf.BitVec, n)
	for i := 0; i < n; i++ {
		payloads[i] = gf.RandomBitVec(d, rng.Uint64)
		initial[i] = []Coded{Encode(i, n, payloads[i])}
	}
	return initial, payloads
}

// TestIndexedBroadcastLemma53 runs the full Lemma 5.3 algorithm under
// several adversaries and checks every node decodes every token within
// the O(n+k) schedule.
func TestIndexedBroadcastLemma53(t *testing.T) {
	const n, d = 24, 8
	tests := []struct {
		name string
		adv  dynnet.Adversary
	}{
		{"random", adversary.NewRandomConnected(n, n/2, 1)},
		{"rotating-path", adversary.NewRotatingPath(n, 2)},
		{"static-path", adversary.NewStatic(graph.Path(n))},
		{"static-star", adversary.NewStatic(graph.Star(n))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			initial, payloads := oneTokenPerNode(n, d, rng)
			schedule := DefaultSchedule(n, n)
			rounds, decoded, err := runIndexedBroadcast(initial, n, d, schedule, tt.adv, n+d, 11)
			if err != nil {
				t.Fatal(err)
			}
			if rounds != schedule {
				t.Errorf("rounds = %d, want schedule %d", rounds, schedule)
			}
			for node := range decoded {
				for tok := range payloads {
					if !decoded[node][tok].Equal(payloads[tok]) {
						t.Fatalf("node %d decoded token %d wrong", node, tok)
					}
				}
			}
		})
	}
}

// TestIndexedBroadcastAgainstIsolation runs Lemma 5.3 against the
// adaptive adversary that minimizes informed/uninformed contact. The
// lemma's guarantee is adversary-independent: O(n + k) still suffices
// because every crossing edge transfers sensing with probability 1/2.
func TestIndexedBroadcastAgainstIsolation(t *testing.T) {
	const n, d = 16, 8
	rng := rand.New(rand.NewSource(8))
	initial, payloads := oneTokenPerNode(n, d, rng)

	adv := adversary.NewIsolateInformed(n, 3, func(i int, nodes []dynnet.Node) bool {
		bn, ok := nodes[i].(*BroadcastNode)
		if !ok {
			return false
		}
		return bn.Span().Rank() > 1 // more than its own token
	})
	schedule := 8 * (n + n) // isolation forces a near-worst-case constant
	rounds, decoded, err := runIndexedBroadcast(initial, n, d, schedule, adv, n+d, 13)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != schedule {
		t.Errorf("rounds = %d", rounds)
	}
	for node := range decoded {
		for tok := range payloads {
			if !decoded[node][tok].Equal(payloads[tok]) {
				t.Fatalf("node %d decoded token %d wrong", node, tok)
			}
		}
	}
}

// TestIndexedBroadcastBudget checks the engine rejects the run when the
// k + d message no longer fits in b.
func TestIndexedBroadcastBudget(t *testing.T) {
	const n, d = 8, 8
	rng := rand.New(rand.NewSource(9))
	initial, _ := oneTokenPerNode(n, d, rng)
	_, _, err := runIndexedBroadcast(initial, n, d, DefaultSchedule(n, n),
		adversary.NewRandomConnected(n, 2, 1), n+d-1 /* one bit short */, 5)
	if !errors.Is(err, dynnet.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestIndexedBroadcastUntilDecoded: with Decoded the phase stops at
// the first round after which every span has full rank — the round
// before, some span lacked it — and a cap too small is an error.
func TestIndexedBroadcastUntilDecoded(t *testing.T) {
	const n, d = 8, 8
	run := func(limit int) (*dynnet.Session, []*BroadcastNode, error) {
		initial, _ := oneTokenPerNode(n, d, rand.New(rand.NewSource(12)))
		rngs := make([]*rand.Rand, n)
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(int64(20 + i)))
		}
		s := dynnet.NewSession(n, adversary.NewStatic(graph.Path(n)), dynnet.Config{BitBudget: n + d})
		nodes, err := IndexedBroadcast(s, n, d, initial, rngs, limit, Decoded())
		return s, nodes, err
	}
	s, nodes, err := run(DefaultSchedule(n, n))
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		if !nd.Span().CanDecode() {
			t.Errorf("node %d cannot decode after %d rounds", i, s.Round())
		}
	}
	// A path of n nodes needs at least n-1 rounds for the far token.
	if s.Round() < n-1 || s.Round() >= DefaultSchedule(n, n) {
		t.Errorf("stopped after %d rounds", s.Round())
	}
	if short, _, err := run(s.Round() - 1); err == nil {
		t.Errorf("decoded in %d rounds on the second run, %d on the first", short.Round(), s.Round())
	}
}

// TestBroadcastNodeLifecycle checks the silent start: a node that has
// heard nothing has nothing to combine, however many rounds pass.
func TestBroadcastNodeLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewBroadcastNode(4, 4, nil, rng)
	if n.Send(0) != nil {
		t.Error("node with empty span must stay silent")
	}
	n.Receive(0, nil)
	n.Receive(1, nil)
	if n.Send(2) != nil {
		t.Error("node that heard nothing must stay silent")
	}
}

// TestBroadcastNodeIgnoresForeignMessages ensures non-Coded messages are
// skipped rather than crashing the decoder.
func TestBroadcastNodeIgnoresForeignMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := NewBroadcastNode(4, 4, nil, rng)
	n.Receive(0, []dynnet.Message{fakeMsg{}})
	if n.Span().Rank() != 0 {
		t.Error("foreign message changed span")
	}
}

type fakeMsg struct{}

func (fakeMsg) Bits() int { return 1 }
