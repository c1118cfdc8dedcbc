package exp

import (
	"os"
	"strconv"
	"strings"
	"testing"
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

// quickTables renders E1–E10 (the synchronous, paper-model experiments)
// at Quick scale and seed 1, the way cmd/experiments prints them.
func quickTables(t *testing.T, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, e := range All()[:10] {
		tbl, err := e.Run(Config{Quick: true, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	return b.String()
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
	const path = "testdata/quick-seed1.txt"
	got := quickTables(t, 1)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Workers=1 tables differ from %s:\n%s", path, got)
	}
	if got4 := quickTables(t, 4); got4 != string(want) {
		t.Errorf("Workers=4 tables differ from %s:\n%s", path, got4)
	}
}
