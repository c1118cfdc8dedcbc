package exp

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/keyed"
)

// TestAllExperimentsRunQuick smoke-runs every experiment at Quick scale
// and checks each produces a non-empty, well-formed table. The
// quantitative shape assertions live in each experiment's notes and in
// the focused package tests; this guards the harness plumbing end to
// end.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(Config{Quick: true, Trials: 1, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row %v does not match header %v", row, tbl.Header)
				}
			}
			if !strings.Contains(tbl.Caption, e.ID) {
				t.Errorf("caption %q does not name the experiment", tbl.Caption)
			}
			if out := tbl.String(); len(out) == 0 {
				t.Error("empty rendering")
			}
		})
	}
}

func TestFind(t *testing.T) {
	for _, e := range All() {
		got, err := Find(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("Find(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := Find("E99"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestEndgameCodedDecodes(t *testing.T) {
	for _, k := range []int{2, 8, 64} {
		for seed := int64(0); seed < 5; seed++ {
			if !EndgameCodedDecodes(k, 8, seed) {
				t.Errorf("k=%d seed=%d: coded end-game failed to decode", k, seed)
			}
		}
	}
}

func TestEndgameForwardMeanNearHalfK(t *testing.T) {
	const k = 64
	sum := 0.0
	const trials = 2000
	for seed := int64(0); seed < trials; seed++ {
		sum += endgameForwardRounds(k, seed)
	}
	mean := sum / trials
	if mean < float64(k)/2-4 || mean > float64(k)/2+4 {
		t.Errorf("mean forwarding rounds %.1f, expected ~(k+1)/2 = %.1f", mean, float64(k+1)/2)
	}
}

func TestExperimentIDsAreSequential(t *testing.T) {
	for i, e := range All() {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
	}
}

// quickTables renders exps at Quick scale and seed 1, the way
// cmd/experiments prints them.
func quickTables(t *testing.T, exps []Experiment, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, e := range exps {
		tbl, err := e.Run(Config{Quick: true, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// checkPinned compares exps' quick tables at Workers 1 and 4 with the
// rendering committed at path.
func checkPinned(t *testing.T, path string, exps []Experiment) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if got := quickTables(t, exps, workers); got != string(want) {
			t.Errorf("Workers=%d tables differ from %s:\n%s", workers, path, got)
		}
	}
}

// TestQuickTablesPinned pins the paper side the way the golden
// transcripts pin the gossip runtime: every cell and fitted slope of
// E1–E10 at Quick scale, seed 1, is a pure function of the seed, at any
// worker count. A refactor of dynnet, the node types or the
// dissemination drivers must leave testdata/quick-seed1.txt as it is; a
// deliberate behaviour change replaces it with the rendering the
// failure prints.
func TestQuickTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	checkPinned(t, "testdata/quick-seed1.txt", All()[:10])
}

// TestRuntimeTablesPinned is TestQuickTablesPinned for E11–E14, the
// experiments that run the lockstep gossip runtimes: their cells are a
// pure function of the seed too, so a change to how a trial is lowered
// onto a run leaves testdata/quick-seed1-runtime.txt as it is.
func TestRuntimeTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	checkPinned(t, "testdata/quick-seed1-runtime.txt", All()[10:])
}

// TestRuntimeVerdictsPassQuick reads the verdicts of E11–E14 — the
// lockstep runtime experiments, which end in a machine-read PASS/FAIL —
// at Quick scale and seed 1, the way CI and `cmd/experiments -quick`
// print them: every verdict note must say PASS.
func TestRuntimeVerdictsPassQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, e := range All()[10:] {
		tbl, err := e.Run(Config{Quick: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		verdicts := 0
		for _, note := range tbl.Notes {
			if !strings.Contains(note, "require") {
				continue
			}
			verdicts++
			if !strings.Contains(note, "PASS") || strings.Contains(note, "FAIL") {
				t.Errorf("%s: %s", e.ID, note)
			}
		}
		if verdicts == 0 {
			t.Errorf("%s prints no verdict note", e.ID)
		}
	}
}

// TestTrialSeedsDisjointAcrossRunSeeds: the seeds a sweep hands its
// trials under -seed 1 and -seed 2 share nothing. Trial t used to run at
// Seed+t, so -seed 2 replayed four of -seed 1's five trials.
func TestTrialSeedsDisjointAcrossRunSeeds(t *testing.T) {
	seeds := func(c Config) []int64 {
		s, err := sweepSeeded(c, 5, func(seed int64) (int64, error) { return seed, nil })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := map[int64]int{}
	for i, s := range seeds(Config{Seed: 1}) {
		first[s] = i
	}
	for i, s := range seeds(Config{Seed: 2}) {
		if j, dup := first[s]; dup {
			t.Errorf("-seed 2's trial %d runs at -seed 1's trial %d's seed %d", i, j, s)
		}
	}
	if len(first) != 5 {
		t.Errorf("-seed 1's five trials run at %d distinct seeds", len(first))
	}
}

// TestE1PayloadsAndTopologyDiffer: within one E1 trial the payload
// stream (RunIndexedUntilDecoded's) and the random adversary's topology
// stream are different sequences. Both used to be seeded with the trial
// seed by value, so the adversary's first graph was the one the payload
// stream would have drawn.
func TestE1PayloadsAndTopologyDiffer(t *testing.T) {
	const n = 16
	seed := Config{Seed: 1}.trialSeed(0)
	fromPayloads := graph.RandomConnected(n, n/2, keyed.Rand(seed, keyed.Payloads))
	topology := adversary.NewRandomConnected(n, n/2, seed).Graph(0, nil)
	if slices.Equal(fromPayloads.Edges(), topology.Edges()) {
		t.Error("E1's first topology is the graph its payload stream draws")
	}
}

// TestE14CellIsACommandLine: an E14 trial is the run cmd/cluster makes
// with the cell's flags. At one trial seed the adaptive/hostile cell's
// coded run finishes at the tick and with the protocol bits the CLI,
// built and run as a process, reports for the same command line.
func TestE14CellIsACommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/cluster; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "cluster")
	if out, err := exec.Command("go", "build", "-o", bin, "../../cmd/cluster").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/cluster: %v\n%s", err, out)
	}
	cfg := Config{Quick: true, Seed: 1}
	seed := cfg.trialSeed(0)
	tr, err := runGossipTrial(cfg, e14Cell(10, 8, 64, "adaptive", "hostile", seed), "")
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-n", "10", "-k", "8", "-payload", "64", "-fanout", "2", "-transport", "lockstep",
		"-seed", strconv.FormatInt(seed, 10), "-loss", "0.1", "-maxticks", "500000",
		"-churn", "crashmax:40:1,restart:90:1", "-adversary", "adaptive", "-mutate", e14Mutations}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("cmd/cluster %v: %v\n%s", args, err, out)
	}
	row := func(metric string) float64 {
		t.Helper()
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(line, metric); ok && strings.HasPrefix(rest, "  ") {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					t.Fatalf("row %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("no %q row in:\n%s", metric, out)
		return 0
	}
	if ticks, bits := row("ticks"), row("protocol bits sent"); ticks != tr.codedTicks || bits != tr.codedBits {
		t.Errorf("cmd/cluster %v: %g ticks, %g bits; the E14 trial: %g ticks, %g bits", args, ticks, bits, tr.codedTicks, tr.codedBits)
	}
}
