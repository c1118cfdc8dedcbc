package main

import (
	"crypto/sha256"
	"fmt"
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

// TestReportPinned pins the whole report of two runs, byte for byte:
// `spread -n 32 -seed 1` (random adversary) and `spread -n 24 -adv
// rotating-path`, at the default payload of 8 bits. A run is a pure
// function of its flags, so any change in how rounds are stepped or
// sampled shows here.
func TestReportPinned(t *testing.T) {
	for _, tt := range []struct {
		n    int
		adv  string
		want string
	}{
		{32, "random", "3dbb1dafb47dfcfc9f877034623024cb2ac8a220fdd3c3862467f17a8c757ae1"},
		{24, "rotating-path", "5a5cfae3cfcb7802d2310ae7d7fcc7c98aca5f136205c99e39c4ac049be55491"},
	} {
		var out strings.Builder
		if err := run(&out, tt.n, 8, tt.adv, 1); err != nil {
			t.Fatalf("-n %d -adv %s: %v", tt.n, tt.adv, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != tt.want {
			t.Errorf("-n %d -adv %s: report sha256 %s, want %s:\n%s", tt.n, tt.adv, got, tt.want, out.String())
		}
	}
}

func TestUnknownAdversaryIsAnError(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 16, 8, "benevolent", 1); err == nil || out.Len() != 0 {
		t.Errorf("unknown adversary: err = %v, output %q; want an error and no report", err, out.String())
	}
}
