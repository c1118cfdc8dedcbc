package main

import (
	"strings"
	"testing"
)

func TestSpreadCompletes(t *testing.T) {
	for _, adv := range []string{"random", "rotating-path"} {
		var out strings.Builder
		if err := run(&out, 16, 8, adv, 1); err != nil {
			t.Fatalf("-adv %s: %v", adv, err)
		}
		for _, want := range []string{"n = k = 16", "adversary = " + adv, "first round decoding a non-initial token"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-adv %s output missing %q:\n%s", adv, want, out.String())
			}
		}
	}
}

func TestUnknownAdversaryIsAnError(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 16, 8, "benevolent", 1); err == nil || out.Len() != 0 {
		t.Errorf("unknown adversary: err = %v, output %q; want an error and no report", err, out.String())
	}
}
