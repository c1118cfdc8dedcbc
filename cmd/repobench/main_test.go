package main

import (
	"encoding/xml"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// exec runs the CLI and returns exit code + captured output.
func execCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func mustXML(t *testing.T, s string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(s))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("invalid XML: %v\n%s", err, s)
		}
	}
}

// TestSweepAppendsRevisionKeyedRows drives generate mode end to end:
// a cluster n-sweep writes a datafile named by the revision, appends
// on re-run, and every row carries the measured figures.
func TestSweepAppendsRevisionKeyedRows(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-driver", "cluster", "-sweep", "n=4:2:8", "-k", "4",
		"-payload", "32", "-datadir", dir, "-rev", "abc1234", "-seed", "3"}
	code, out, errOut := execCLI(t, args...)
	if code != 0 {
		t.Fatalf("sweep exited %d: %s%s", code, out, errOut)
	}
	path := filepath.Join(dir, "abc1234.dat")
	rows, err := readDatafile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("sweep n=4:2:8 wrote %d rows, want 3:\n%+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.driver != "cluster" || r.param != "n" {
			t.Errorf("row mislabeled: %+v", r)
		}
		if r.runtimeNs <= 0 || r.allocs == 0 || r.heapHighWater == 0 || r.tokensPerTick <= 0 {
			t.Errorf("row missing measurements: %+v", r)
		}
	}
	if rows[0].value != 4 || rows[1].value != 6 || rows[2].value != 8 {
		t.Errorf("swept values %g %g %g, want 4 6 8", rows[0].value, rows[1].value, rows[2].value)
	}

	// Appending: a second sweep lands in the same revision file.
	if code, _, errOut := execCLI(t, args...); code != 0 {
		t.Fatalf("second sweep exited %d: %s", code, errOut)
	}
	rows, err = readDatafile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Errorf("re-run appended to %d rows, want 6", len(rows))
	}
	// The header comment must appear exactly once.
	raw, _ := os.ReadFile(path)
	if n := strings.Count(string(raw), "repobench datafile"); n != 1 {
		t.Errorf("header written %d times, want 1:\n%s", n, raw)
	}
}

// TestLossSweepKeepsEndpoint pins the float-accumulation guard: a
// 0:0.1:0.4 sweep must include 0.4.
func TestLossSweepKeepsEndpoint(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := execCLI(t, "-driver", "cluster", "-sweep", "loss=0:0.2:0.4",
		"-n", "6", "-k", "4", "-payload", "32", "-datadir", dir, "-rev", "r1")
	if code != 0 {
		t.Fatalf("loss sweep exited %d: %s", code, errOut)
	}
	rows, err := readDatafile(filepath.Join(dir, "r1.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2].value < 0.39 {
		t.Errorf("loss sweep rows %+v, want 3 ending at 0.4", rows)
	}
}

func TestStreamAndEngineDrivers(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := execCLI(t, "-driver", "stream", "-sweep", "window=1:1:2",
		"-n", "6", "-k", "4", "-payload", "32", "-generations", "3", "-datadir", dir, "-rev", "r1")
	if code != 0 {
		t.Fatalf("stream sweep exited %d: %s", code, errOut)
	}
	code, _, errOut = execCLI(t, "-driver", "engine", "-sweep", "k=4:4:8",
		"-n", "12", "-payload", "8", "-datadir", dir, "-rev", "r1")
	if code != 0 {
		t.Fatalf("engine sweep exited %d: %s", code, errOut)
	}
	rows, err := readDatafile(filepath.Join(dir, "r1.dat"))
	if err != nil {
		t.Fatal(err)
	}
	var drivers []string
	for _, r := range rows {
		drivers = append(drivers, r.driver)
	}
	if len(rows) != 4 || rows[0].driver != "stream" || rows[3].driver != "engine" {
		t.Errorf("drivers %v, want stream,stream,engine,engine", drivers)
	}
}

// TestDisplaySweepSVG renders a sweep chart from two revision
// datafiles and checks the markup: well-formed XML, one curve per
// revision, the swept axis labeled.
func TestDisplaySweepSVG(t *testing.T) {
	dir := t.TempDir()
	for _, rev := range []string{"aaa1111", "bbb2222"} {
		code, _, errOut := execCLI(t, "-driver", "cluster", "-sweep", "n=4:2:6", "-k", "4",
			"-payload", "32", "-datadir", dir, "-rev", rev)
		if code != 0 {
			t.Fatalf("sweep %s exited %d: %s", rev, code, errOut)
		}
	}
	out := filepath.Join(dir, "sweep.svg")
	code, _, errOut := execCLI(t, "-display", "sweep", "-param", "n", "-stat", "runtime",
		"-datadir", dir, "-o", out)
	if code != 0 {
		t.Fatalf("display exited %d: %s", code, errOut)
	}
	svg, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	mustXML(t, string(svg))
	for _, want := range []string{"aaa1111/cluster", "bbb2222/cluster", "<polyline", "runtime (ms)"} {
		if !strings.Contains(string(svg), want) {
			t.Errorf("sweep SVG missing %q", want)
		}
	}
}

// TestDisplayHistorySVG folds committed BENCH_PR*.json baselines into
// the trajectory chart.
func TestDisplayHistorySVG(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"BENCH_PR4.json": `{"benchmarks":{"BenchmarkEngineRound":{"ns_per_op":900,"allocs_per_op":1295},
			"BenchmarkWireRoundTrip":{"ns_per_op":1000,"allocs_per_op":3}}}`,
		"BENCH_PR5.json": `{"benchmarks":{"BenchmarkEngineRound":{"ns_per_op":880,"allocs_per_op":883},
			"BenchmarkWireRoundTrip":{"ns_per_op":600,"allocs_per_op":1}}}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	code := run([]string{"-display", "history", "-stat", "allocs", "-benchdir", dir}, &out, os.Stderr)
	if code != 0 {
		t.Fatalf("history display exited %d", code)
	}
	svg := out.String()
	mustXML(t, svg)
	for _, want := range []string{"EngineRound", "WireRoundTrip", "trajectory", "allocations"} {
		if !strings.Contains(svg, want) {
			t.Errorf("history SVG missing %q", want)
		}
	}
	// Benchmarks the baselines never recorded are dropped, not drawn as
	// empty series.
	if strings.Contains(svg, "StreamSustained") {
		t.Error("history SVG charts a benchmark absent from every baseline")
	}
}

func TestSweepGrammarErrors(t *testing.T) {
	cases := []struct{ name, spec string }{
		{"unknown param", "zeta=1:1:3"},
		{"missing range", "n=1:2"},
		{"zero step", "n=1:0:5"},
		{"negative step", "n=5:-1:1"},
		{"max below min", "n=5:1:2"},
		{"not numbers", "n=a:b:c"},
	}
	for _, tc := range cases {
		if _, _, _, _, err := parseSweep(tc.spec); err == nil {
			t.Errorf("%s: parseSweep(%q) accepted", tc.name, tc.spec)
		}
	}
	// Errors reach the CLI as exit 1.
	if code, _, errOut := execCLI(t, "-sweep", "zeta=1:1:3", "-datadir", t.TempDir(), "-rev", "x"); code != 1 || !strings.Contains(errOut, "-sweep") {
		t.Errorf("bad sweep spec: exit %d stderr %q", code, errOut)
	}
}

func TestModeValidation(t *testing.T) {
	if code, _, _ := execCLI(t); code != 1 {
		t.Error("no mode selected must fail")
	}
	if code, _, _ := execCLI(t, "-sweep", "n=1:1:2", "-display", "sweep"); code != 1 {
		t.Error("both modes at once must fail")
	}
	if code, _, _ := execCLI(t, "-display", "interpretive-dance"); code != 1 {
		t.Error("unknown display mode must fail")
	}
	if code, _, errOut := execCLI(t, "-driver", "engine", "-sweep", "loss=0:0.1:0.2",
		"-datadir", t.TempDir(), "-rev", "x"); code != 1 || !strings.Contains(errOut, "engine") {
		t.Errorf("engine loss sweep: exit %d, stderr %q; want rejection", code, errOut)
	}
}

// TestShardsSweepKeepsIntegerEndpoints is the regression test for the
// endpoint bug the index-based grid fixed: the accumulating float loop
// dropped max on integer grids (shards=1:1:4 lost 4) while emitting a
// phantom point past max on strided ones (1:2:4 emitted 5). The grid
// must be exactly {min + i*step} clipped to max.
func TestShardsSweepKeepsIntegerEndpoints(t *testing.T) {
	cases := []struct {
		spec string
		want []float64
	}{
		{"shards=1:1:4", []float64{1, 2, 3, 4}},
		{"shards=1:2:4", []float64{1, 3}},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		code, _, errOut := execCLI(t, "-driver", "cluster", "-sweep", tc.spec,
			"-n", "8", "-k", "4", "-payload", "32", "-datadir", dir, "-rev", "r1")
		if code != 0 {
			t.Fatalf("%s exited %d: %s", tc.spec, code, errOut)
		}
		rows, err := readDatafile(filepath.Join(dir, "r1.dat"))
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, r := range rows {
			got = append(got, r.value)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s swept %v, want %v", tc.spec, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s swept %v, want %v", tc.spec, got, tc.want)
			}
		}
	}
}

// TestShardsSweepMatchesSerial pins transcript invariance through the
// observatory: every point of a shards sweep is the same run, so
// tokens/tick must be identical across the whole curve.
func TestShardsSweepMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := execCLI(t, "-driver", "stream", "-sweep", "shards=1:1:3",
		"-n", "6", "-k", "4", "-payload", "32", "-generations", "3", "-datadir", dir, "-rev", "r1")
	if code != 0 {
		t.Fatalf("shards sweep exited %d: %s", code, errOut)
	}
	rows, err := readDatafile(filepath.Join(dir, "r1.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("shards sweep rows %+v, want 3", rows)
	}
	for _, r := range rows[1:] {
		if r.tokensPerTick != rows[0].tokensPerTick {
			t.Errorf("tokens/tick varies across shard counts: %+v", rows)
		}
	}
}

// TestEngineShardsRejected mirrors the loss/churn rejection: the
// synchronous engine driver has no shards axis, swept or fixed.
func TestEngineShardsRejected(t *testing.T) {
	if code, _, errOut := execCLI(t, "-driver", "engine", "-sweep", "shards=1:1:2",
		"-datadir", t.TempDir(), "-rev", "x"); code != 1 || !strings.Contains(errOut, "engine") {
		t.Errorf("engine shards sweep: exit %d, stderr %q; want rejection", code, errOut)
	}
	if code, _, errOut := execCLI(t, "-driver", "engine", "-sweep", "k=4:4:8", "-shards", "2",
		"-n", "12", "-payload", "8", "-datadir", t.TempDir(), "-rev", "x"); code != 1 || !strings.Contains(errOut, "engine") {
		t.Errorf("engine fixed -shards 2: exit %d, stderr %q; want rejection", code, errOut)
	}
}

func TestChurnSweep(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := execCLI(t, "-driver", "cluster", "-sweep", "churn=0:1:2",
		"-n", "8", "-k", "4", "-payload", "32", "-datadir", dir, "-rev", "r1")
	if code != 0 {
		t.Fatalf("churn sweep exited %d: %s", code, errOut)
	}
	rows, err := readDatafile(filepath.Join(dir, "r1.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("churn sweep rows %+v, want 3", rows)
	}
}

// TestSweepPointMatchesCLIs: a sweep point is the run `cmd/cluster` or
// `cmd/stream` makes with the same flags — same transport stack, same
// sizing, same tokens — so it finishes at the same tick. The CLIs are
// built and run as processes: what is compared is what a user would
// see, not a second spelling of the lowering.
func TestSweepPointMatchesCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/cluster and cmd/stream; skipped with -short")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "../cluster", "../stream").CombinedOutput(); err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}
	// cliRow runs a CLI and returns the integer value of a table row.
	cliRow := func(out, metric string) int {
		t.Helper()
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, metric); ok && strings.HasPrefix(rest, "  ") {
				v, err := strconv.Atoi(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("row %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("no %q row in:\n%s", metric, out)
		return 0
	}
	shared := []string{"-n", "12", "-k", "6", "-payload", "48", "-fanout", "2", "-loss", "0.2", "-seed", "5"}
	for _, tc := range []struct {
		driver string
		extra  []string // the stream's own flags
		sweep  string
		cli    []string // the swept value as the CLI's flag
	}{
		{"cluster", nil, "shards=2:1:2", []string{"-shards", "2"}},
		{"stream", []string{"-window", "3", "-generations", "5"}, "churn=1:1:1", []string{"-churn", churnSchedule(1)}},
	} {
		args := append(append([]string{"-transport", "lockstep", "-maxticks", strconv.Itoa(sweepMaxTicks)}, shared...), append(tc.extra, tc.cli...)...)
		out, err := exec.Command(filepath.Join(bin, tc.driver), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("cmd/%s %v: %v\n%s", tc.driver, args, err, out)
		}
		ticks := cliRow(string(out), "ticks")
		tokens := 12 * 6 // cluster, no churn: every node ends with all k
		if tc.driver == "stream" {
			tokens = cliRow(string(out), "tokens delivered (all nodes)")
		}

		dir := t.TempDir()
		sweep := append(append([]string{"-driver", tc.driver, "-sweep", tc.sweep, "-datadir", dir, "-rev", "cli"}, shared...), tc.extra...)
		if code, _, errOut := execCLI(t, sweep...); code != 0 {
			t.Fatalf("%s sweep exited %d: %s", tc.driver, code, errOut)
		}
		rows, err := readDatafile(filepath.Join(dir, "cli.dat"))
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s sweep rows %+v, err %v", tc.driver, rows, err)
		}
		if want := float64(tokens) / float64(ticks); rows[0].tokensPerTick != want {
			t.Errorf("%s: sweep tokens_per_tick %g, the CLI run gives %d/%d = %g", tc.driver, rows[0].tokensPerTick, tokens, ticks, want)
		}
	}
}
