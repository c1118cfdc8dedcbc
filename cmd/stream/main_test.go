package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
)

// defaults are small valid flags, overridden per case, so the tests
// exercise exactly the code path main dispatches to.
func defaults() options {
	return options{window: 2, generations: 3, GossipFlags: cliutil.GossipFlags{
		N: 8, K: 4, Payload: 32, Fanout: 2, Shards: 1, Transport: "lockstep", Seed: 1,
		Interval: 500 * time.Microsecond, Timeout: 30 * time.Second,
	}}
}

func (o options) run(w io.Writer) error {
	if w == nil {
		w = io.Discard
	}
	return run(w, o)
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"n too small", func(a *options) { a.N = 1 }, "-n"},
		{"n negative", func(a *options) { a.N = -3 }, "-n"},
		{"k zero", func(a *options) { a.K = 0 }, "-k"},
		{"payload zero", func(a *options) { a.Payload = 0 }, "-payload"},
		{"window zero", func(a *options) { a.window = 0 }, "-window"},
		{"generations zero", func(a *options) { a.generations = 0 }, "-generations"},
		{"fanout zero", func(a *options) { a.Fanout = 0 }, "-fanout"},
		{"fanout at n", func(a *options) { a.Fanout = 8 }, "-fanout"},
		{"shards zero", func(a *options) { a.Shards = 0 }, "-shards"},
		{"shards negative", func(a *options) { a.Shards = -4 }, "-shards"},
		{"shards above n", func(a *options) { a.Shards = 9 }, "-shards"},
		{"shards on async transport", func(a *options) { a.Shards = 2; a.Transport = "chan" }, "-shards"},
		{"loss negative", func(a *options) { a.Loss = -0.1 }, "-loss"},
		{"loss one", func(a *options) { a.Loss = 1.0 }, "-loss"},
		{"reorder negative", func(a *options) { a.Reorder = -0.5 }, "-reorder"},
		{"reorder one", func(a *options) { a.Reorder = 1.5 }, "-reorder"},
		{"delay negative", func(a *options) { a.Delay = -time.Millisecond }, "-delay"},
		{"unknown transport", func(a *options) { a.Transport = "carrier-pigeon" }, "transport"},
		{"bad churn kind", func(a *options) { a.Churn = "meteor:10:1" }, "-churn"},
		{"bad churn count", func(a *options) { a.Churn = "join:10:0" }, "-churn"},
		{"unknown adversary", func(a *options) { a.Adversary = "omniscient" }, "-adversary"},
		{"bad mutate op", func(a *options) { a.Mutate = "melt:0.1" }, "-mutate"},
		{"bad mutate rate", func(a *options) { a.Mutate = "stale:-0.1" }, "-mutate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := defaults()
			tc.mut(&a)
			err := a.run(nil)
			if err == nil {
				t.Fatalf("bad flags accepted: %+v", a)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestRunLockstepSmallCompletes(t *testing.T) {
	if err := defaults().run(nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunShardedMatchesSerial drives the sharded engine through the
// CLI path and pins its bit-identity at the surface: same seed, same
// printed report.
func TestRunShardedMatchesSerial(t *testing.T) {
	var serial, sharded strings.Builder
	if err := defaults().run(&serial); err != nil {
		t.Fatal(err)
	}
	a := defaults()
	a.Shards = 4
	if err := a.run(&sharded); err != nil {
		t.Fatal(err)
	}
	if serial.String() != sharded.String() {
		t.Errorf("sharded CLI output diverges from serial:\n--- serial ---\n%s--- shards=4 ---\n%s",
			serial.String(), sharded.String())
	}
}

// TestRunAdversarialLockstepCompletes drives the full adversarial
// surface — adaptive topology, frontier-targeted crash with restart,
// stale replays — through the exact path main dispatches to.
func TestRunAdversarialLockstepCompletes(t *testing.T) {
	a := defaults()
	a.Adversary = "adaptive"
	a.Mutate = "stale:0.05,dup:0.05"
	a.Churn = "crashfrontier:15:1,restart:30:1"
	if err := a.run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunSequentialWindowCompletes(t *testing.T) {
	a := defaults()
	a.window = 1
	a.Loss = 0.2
	if err := a.run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunChurnJoinerReported(t *testing.T) {
	a := defaults()
	a.generations = 8
	a.Churn = "join:15:1"
	var out strings.Builder
	if err := a.run(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"churn schedule", "nodes live at end"} {
		if !strings.Contains(s, want) {
			t.Errorf("churn run output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "caught up in") {
		t.Errorf("mid-stream joiner catch-up not reported:\n%s", s)
	}
}

// TestRunIncompleteOutputIsSane pins the timed-out-run reporting: a
// run that hits the tick cap must say Completed false, return the
// "incomplete" error, and print no vacuous throughput (the sustained
// figures must come from tokens actually delivered — zero here — not
// from the configured stream length).
func TestRunIncompleteOutputIsSane(t *testing.T) {
	a := defaults()
	a.Loss = 0.98
	a.MaxTicks = 4
	var out strings.Builder
	err := a.run(&out)
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("capped run returned %v, want incomplete error", err)
	}
	s := out.String()
	if !strings.Contains(s, "completed") || !strings.Contains(s, "false") {
		t.Errorf("output does not report completed=false:\n%s", s)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(s, bad) {
			t.Errorf("vacuous aggregate %q in incomplete-run output:\n%s", bad, s)
		}
	}
	if strings.Contains(s, "sustained tokens/tick") {
		t.Errorf("sustained throughput reported for a run that delivered nothing:\n%s", s)
	}
	if !strings.Contains(s, "did NOT complete") {
		t.Errorf("output does not flag the partial run:\n%s", s)
	}
}

// TestRunTraceExportsArtifacts drives run with both telemetry flags
// set and checks the full artifact set lands: the standard rendered
// file set in -trace's directory and the bare v1 text export at
// -telemetry's path, all non-empty and schema-framed.
func TestRunTraceExportsArtifacts(t *testing.T) {
	dir := t.TempDir()
	a := defaults()
	a.Trace = dir
	a.Telemetry = filepath.Join(dir, "export.txt")
	if err := a.run(nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"stream-telemetry.txt", "stream-heatmap.svg",
		"stream-timeline.svg", "stream-packetflow.svg", "export.txt",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing artifact: %v", err)
			continue
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", name)
		}
		if strings.HasSuffix(name, ".txt") && !strings.HasPrefix(string(b), "telemetry v1\n") {
			t.Errorf("%s does not start with the v1 schema header", name)
		}
	}
}

// TestRunWritesProfiles: -cpuprofile and -memprofile, parsed as main
// parses them, each leave a non-empty pprof file, gzip-framed as pprof
// writes them.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	var o options
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	o.bind(fs)
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := fs.Parse([]string{"-transport", "lockstep", "-n", "8", "-k", "4", "-generations", "3", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := o.run(io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{cpu, mem} {
		b, err := os.ReadFile(name)
		if err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, err %v; want a gzip stream", name, len(b), err)
		}
	}
}

// TestFullStackTranscriptPinned pins the report of CI's full-stack line:
// every fault flag, the adaptive adversary and churn, lowered by
// cliutil from the flags as main parses them.
func TestFullStackTranscriptPinned(t *testing.T) {
	var o options
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	o.Register(fs, "stream", 32, 16)
	fs.IntVar(&o.window, "window", 4, "")
	fs.IntVar(&o.generations, "generations", 16, "")
	full := "-n 48 -k 16 -transport lockstep -seed 1 -loss 0.1 -reorder 0.1 -delay 2ms -mutate all:0.02 -adversary adaptive -churn join:5:2,crash:10:2,leave:14:2,restart:20:1 -shards 1"
	if err := fs.Parse(strings.Fields(full)); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.run(&out); err != nil {
		t.Fatal(err)
	}
	const want = "c3d93f855c3fc274d7b08bbd4c2f751cc6f6ed67b33a8766f823c327517d68f2"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != want {
		t.Errorf("report sha256 %s, want %s:\n%s", got, want, out.String())
	}
}

// TestFlagSurface: cmd/stream binds exactly these flags, at these
// defaults, through the shared cliutil block and its own.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	new(options).bind(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	const want = "adversary= churn= cpuprofile= delay=0s fanout=2 generations=16 interval=500µs k=16 loss=0 maxticks=0 memprofile= mutate= n=32 payload=128 reorder=0 seed=1 shards=1 telemetry= timeout=30s trace= transport=chan window=4"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flags\n got %s\nwant %s", g, want)
	}
}
