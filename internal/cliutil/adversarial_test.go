package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hostile"
	"repro/internal/telemetry"
)

func TestParseAdversaryFlagAccepts(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "mob.trace")
	if err := os.WriteFile(traceFile, []byte("5 0 1 down\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "random", "rotating-path", "static-complete", "tstable:4", "tinterval:3", "adaptive", "trace:" + traceFile} {
		adv, err := ParseAdversaryFlag(spec, 8, 1)
		if err != nil {
			t.Errorf("ParseAdversaryFlag(%q): %v", spec, err)
			continue
		}
		if (adv == nil) != (spec == "") {
			t.Errorf("ParseAdversaryFlag(%q) = %v, nil only for the empty spec", spec, adv)
		}
	}
}

// TestParseAdversaryFlagUnknownListsValidNames is the discoverability
// gate: a typo'd -adversary must come back with every name the flag
// accepts, both the adversary-package names and the hostile extensions.
func TestParseAdversaryFlagUnknownListsValidNames(t *testing.T) {
	_, err := ParseAdversaryFlag("omniscient", 8, 1)
	if err == nil {
		t.Fatal("unknown adversary accepted")
	}
	for _, want := range []string{
		"omniscient", "random", "rotating-path", "static-<topology>",
		"tstable:<T>", "tinterval:<T>", "adaptive", "trace:<file>",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-adversary error %q does not mention %q", err, want)
		}
	}
}

func TestParseAdversaryFlagRejects(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"tstable:0", "positive integer"},
		{"tstable:x", "positive integer"},
		{"tinterval:-1", "positive integer"},
		{"adaptive:3", "takes no parameter"},
		{"trace:", "trace:<file>"},
		{"trace:/does/not/exist", "no such file"},
		{"random:7", "takes no parameter"},
	}
	for _, tc := range cases {
		if _, err := ParseAdversaryFlag(tc.spec, 8, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseAdversaryFlag(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseMutateFlagNamesFlag(t *testing.T) {
	if _, err := ParseMutateFlag("melt:0.5"); err == nil || !strings.Contains(err.Error(), "-mutate") {
		t.Errorf("bad -mutate error %v does not name the flag", err)
	}
	ms, err := ParseMutateFlag("dup:0.25")
	if err != nil || ms[hostile.OpDup] != 0.25 {
		t.Errorf("ParseMutateFlag(dup:0.25) = %+v, %v", ms, err)
	}
}

// TestWrapAdversarialEmptyIsIdentity pins the golden-transcript
// guarantee of GossipFlags.Wrap: with every knob zero and both specs
// empty the transport comes back untouched — no layer, no rng draw,
// nothing a seed-pinned run could observe.
func TestWrapAdversarialEmptyIsIdentity(t *testing.T) {
	var base cluster.Transport = cluster.NewChanTransport(2, 1)
	defer base.Close()
	tr, err := (&GossipFlags{Seed: 1}).Wrap(base, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr != base {
		t.Error("empty adversarial specs wrapped the transport anyway")
	}
}

func TestWrapAdversarialStacks(t *testing.T) {
	var base cluster.Transport = cluster.NewChanTransport(4, 8)
	defer base.Close()
	g := GossipFlags{Seed: 1, Adversary: "rotating-path", Mutate: "dup:0.1"}
	tr, err := g.Wrap(base, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr == base {
		t.Fatal("adversarial specs did not wrap the transport")
	}
	if _, ok := tr.(cluster.TickObserver); !ok {
		t.Error("outermost adversarial layer does not observe ticks")
	}
	// Bad specs surface with the flag name.
	if _, err := (&GossipFlags{Adversary: "omniscient"}).Wrap(base, 4, nil); err == nil || !strings.Contains(err.Error(), "-adversary") {
		t.Errorf("bad -adversary error %v does not name the flag", err)
	}
	if _, err := (&GossipFlags{Mutate: "melt:0.5"}).Wrap(base, 4, nil); err == nil || !strings.Contains(err.Error(), "-mutate") {
		t.Errorf("bad -mutate error %v does not name the flag", err)
	}
}

// TestWrapEveryFlagIsOneLayer: every fault flag lowers to a rule of one
// cluster.Schedule sitting directly on the fabric.
func TestWrapEveryFlagIsOneLayer(t *testing.T) {
	var base cluster.Transport = cluster.NewChanTransport(4, 8)
	defer base.Close()
	g := GossipFlags{Seed: 1, Loss: 0.1, Reorder: 0.1, Delay: 2 * time.Millisecond, Interval: time.Millisecond,
		Mutate: "all:0.02", Adversary: "adaptive"}
	tr, err := g.Wrap(base, 4, telemetry.New(telemetry.Config{Nodes: 4}))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := tr.(*cluster.Schedule)
	if !ok || s.Unwrap() != base {
		t.Errorf("every fault flag set: Wrap returned %T, not one schedule over the fabric", tr)
	}
}

// TestAdaptiveNeedsNoRecorder: -adversary adaptive reads the run, not
// telemetry, so Open and OpenStream build a recorder only for -trace.
func TestAdaptiveNeedsNoRecorder(t *testing.T) {
	g := inProcess()
	g.Adversary = "adaptive"
	cc, err := g.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := g.OpenStream(nil, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Telemetry != nil || sc.Telemetry != nil {
		t.Errorf("no trace flag, yet Open made a recorder (%v) and OpenStream one (%v)", cc.Telemetry, sc.Telemetry)
	}
	g.Trace = t.TempDir()
	if cc, err = g.Open(nil); err != nil || cc.Telemetry == nil {
		t.Errorf("-trace set: Open gave recorder %v, error %v", cc.Telemetry, err)
	}
}
