package central

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/keyed"
	"repro/internal/rlnc"
)

// TestCentralizedLinearTimeWithTinyMessages is the Corollary 2.6 claim:
// with b = d (no room for any coefficient header), the centralized
// algorithm still disseminates n tokens in O(n) rounds — a regime where
// Theorem 2.2 rules out linear-time token forwarding entirely.
func TestCentralizedLinearTimeWithTinyMessages(t *testing.T) {
	const d = 8
	for _, n := range []int{8, 16, 32} {
		rounds, err := Run(n, n, d, adversary.NewRandomConnected(n, n/2, int64(n)), int64(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rounds > 2*n {
			t.Errorf("n=%d: %d rounds, expected O(n)", n, rounds)
		}
	}
}

// TestDistributedCannotMatchBudget confirms the contrast: the
// distributed coded broadcast needs k + d bits per message and trips the
// d-bit budget immediately.
func TestDistributedCannotMatchBudget(t *testing.T) {
	const n, d = 8, 8
	rng := rand.New(rand.NewSource(1))
	initial := make([][]rlnc.Coded, n)
	for i := range initial {
		initial[i] = []rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(d, rng.Uint64))}
	}
	s := dynnet.NewSession(n, adversary.NewRandomConnected(n, 2, 2), dynnet.Config{BitBudget: d /* too small for headers */})
	_, err := rlnc.IndexedBroadcast(s, n, d, initial, keyed.Rands(n, 3, keyed.Coins), rlnc.DefaultSchedule(n, n), nil)
	if !errors.Is(err, dynnet.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestCentralizedUnderRotatingPath(t *testing.T) {
	const n, d = 12, 16
	rounds, err := Run(n, n, d, adversary.NewRotatingPath(n, 4), 5)
	if err != nil {
		t.Fatal(err)
	}
	if rounds <= 0 {
		t.Error("no rounds recorded")
	}
}

func TestMessageBitsChargePayloadOnly(t *testing.T) {
	c := rlnc.Encode(0, 100, gf.NewBitVec(8))
	m := Message{Coded: &c}
	if m.Bits() != 8 {
		t.Errorf("Bits = %d, want 8 (payload only)", m.Bits())
	}
}

func TestNodeSilentWhenEmpty(t *testing.T) {
	n := node{rlnc.NewBroadcastNode(4, 4, nil, rand.New(rand.NewSource(6)))}
	if n.Send(0) != nil {
		t.Error("empty node should stay silent")
	}
}
