package main

import (
	"strings"
	"testing"
)

// TestEveryAlgorithmDisseminates runs each -algo at n = k = 16: the run
// returns nil only after every node decoded every token. T = 32 is the
// smallest power of two Theorem 2.4's meta-rounds fit in at this size.
func TestEveryAlgorithmDisseminates(t *testing.T) {
	for _, algo := range []string{"forward", "naive", "greedy", "priority", "tstable", "stable-forward"} {
		var out strings.Builder
		if err := run(&out, algo, 16, 16, 512, 8, 32, "random", "one-per-node", 1, 1, 1); err != nil {
			t.Errorf("-algo %s: %v", algo, err)
			continue
		}
		if !strings.Contains(out.String(), "rounds=") || !strings.Contains(out.String(), "all nodes decoded all tokens: verified") {
			t.Errorf("-algo %s printed no verified round count:\n%s", algo, out.String())
		}
	}
}

func TestTrialsPrintSummary(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "greedy", 16, 16, 512, 8, 1, "random", "one-per-node", 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trials=3 rounds mean=") {
		t.Errorf("-trials 3 printed no summary:\n%s", out.String())
	}
}

func TestUnknownNamesAreErrors(t *testing.T) {
	for _, tc := range []struct{ what, algo, adv, dist string }{
		{"algorithm", "telepathy", "random", "one-per-node"},
		{"adversary", "greedy", "benevolent", "one-per-node"},
		{"distribution", "greedy", "random", "in-a-heap"},
	} {
		var out strings.Builder
		err := run(&out, tc.algo, 16, 16, 512, 8, 1, tc.adv, tc.dist, 1, 1, 1)
		if err == nil || strings.Contains(out.String(), "verified") {
			t.Errorf("unknown %s: err = %v, output %q; want an error and no verdict", tc.what, err, out.String())
		}
	}
}
