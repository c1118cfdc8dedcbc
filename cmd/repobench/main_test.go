package main

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

// readSweep loads the sweep report generate mode wrote for rev — through
// the loader display mode uses — and returns its entries.
func readSweep(t *testing.T, dir, rev string) []workload {
	t.Helper()
	rep, err := loadReport(filepath.Join(dir, "sweep-"+rev+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Header.Revision != rev {
		t.Errorf("report header names revision %q, want %q", rep.Header.Revision, rev)
	}
	return rep.Workloads
}

func names(ws []workload) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.Name)
	}
	return out
}

// TestSweepAppendsRevisionKeyedRows drives generate mode end to end:
// a cluster n-sweep writes a report named by the revision, a re-run
// adds a sample to the same entries, and every entry carries the
// measured figures under BENCHMARK.json's names.
func TestSweepAppendsRevisionKeyedRows(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-driver", "cluster", "-sweep", "n=4:2:8", "-k", "4",
		"-payload", "32", "-datadir", dir, "-rev", "abc1234", "-seed", "3"}
	code, out, errOut := execCLI(t, args...)
	if code != 0 {
		t.Fatalf("sweep exited %d: %s%s", code, out, errOut)
	}
	rows := readSweep(t, dir, "abc1234")
	if got, want := names(rows), []string{"sweep/cluster/n=4", "sweep/cluster/n=6", "sweep/cluster/n=8"}; !slices.Equal(got, want) {
		t.Fatalf("sweep n=4:2:8 wrote entries %v, want %v", got, want)
	}
	for _, r := range rows {
		for _, metric := range []string{"run_s", "allocs", "alloc_mib", "cluster.ticks", "stream.tokens_per_tick", "proc.heap_highwater_mib"} {
			if v, ok := r.value(metric); !ok || v <= 0 {
				t.Errorf("%s: %s = %g (present %v), want a measurement", r.Name, metric, v, ok)
			}
		}
	}

	// Appending: a second sweep lands in the same entries of the same file.
	if code, _, errOut := execCLI(t, args...); code != 0 {
		t.Fatalf("second sweep exited %d: %s", code, errOut)
	}
	again := readSweep(t, dir, "abc1234")
	if len(again) != 3 {
		t.Fatalf("re-run left %d entries, want 3: %v", len(again), names(again))
	}
	for i, r := range again {
		if len(r.Samples["run_s"]) != 2 {
			t.Errorf("%s: %d run_s samples after a re-run, want 2", r.Name, len(r.Samples["run_s"]))
		}
		// A lockstep run is a pure function of the seed.
		if r.PerLayer["cluster.ticks"] != rows[i].PerLayer["cluster.ticks"] {
			t.Errorf("%s: ticks moved between identical runs", r.Name)
		}
	}
}

// TestLossSweepKeepsEndpoint pins the float-accumulation guard: a
// 0:0.2:0.4 sweep must include 0.4.
func TestLossSweepKeepsEndpoint(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := execCLI(t, "-driver", "cluster", "-sweep", "loss=0:0.2:0.4",
		"-n", "6", "-k", "4", "-payload", "32", "-datadir", dir, "-rev", "r1")
	if code != 0 {
		t.Fatalf("loss sweep exited %d: %s", code, errOut)
	}
	rows := readSweep(t, dir, "r1")
	if len(rows) != 3 || rows[2].Name != "sweep/cluster/loss=0.4" {
		t.Errorf("loss sweep entries %v, want 3 ending at loss=0.4", names(rows))
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
	want := []string{"sweep/stream/window=1", "sweep/stream/window=2", "sweep/engine/k=4", "sweep/engine/k=8"}
	if got := names(readSweep(t, dir, "r1")); !slices.Equal(got, want) {
		t.Errorf("entries %v, want %v", got, want)
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
	code, _, errOut := execCLI(t, "-display", "sweep", "-param", "n", "-metric", "run_s", "-o", out,
		filepath.Join(dir, "sweep-aaa1111.json"), filepath.Join(dir, "sweep-bbb2222.json"))
	if code != 0 {
		t.Fatalf("display exited %d: %s", code, errOut)
	}
	svg, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	mustXML(t, string(svg))
	for _, want := range []string{"aaa1111/cluster", "bbb2222/cluster", "<polyline", "run_s (s)"} {
		if !strings.Contains(string(svg), want) {
			t.Errorf("sweep SVG missing %q", want)
		}
	}
}

// realReport is `bash benchmark/run.sh -seconds 4 -out` at a19c03d,
// trimmed to two of its six workloads.
const realReport = "testdata/report-a19c03d.json"

// TestDisplayHistorySVG charts a report the benchmark wrote, through the
// loader and chart code the sweeps use: one curve per benchmark
// workload across the reports given, sweep points left to their own
// chart.
func TestDisplayHistorySVG(t *testing.T) {
	dir := t.TempDir()
	if code, _, errOut := execCLI(t, "-driver", "cluster", "-sweep", "n=4:2:6", "-k", "4",
		"-payload", "32", "-datadir", dir, "-rev", "ccc3333"); code != 0 {
		t.Fatalf("sweep exited %d: %s", code, errOut)
	}
	for _, metric := range []string{"run_s", "rlnc.coding_share"} {
		var out strings.Builder
		code := run([]string{"-display", "history", "-metric", metric,
			realReport, filepath.Join(dir, "sweep-ccc3333.json"), realReport}, &out, os.Stderr)
		if code != 0 {
			t.Fatalf("history display of %s exited %d", metric, code)
		}
		svg := out.String()
		mustXML(t, svg)
		for _, want := range []string{">gossip-deep<", ">stream-lossy<", metric + " (", "1=a19c03d 2=a19c03d 3=ccc3333"} {
			if !strings.Contains(svg, want) {
				t.Errorf("%s history SVG missing %q", metric, want)
			}
		}
		if n := strings.Count(svg, "<polyline"); n != 2 {
			t.Errorf("%s history SVG draws %d curves, want one per workload of the report (2)", metric, n)
		}
		if strings.Contains(svg, "sweep/") {
			t.Errorf("%s history SVG charts a sweep point", metric)
		}
	}

	// The same file answers a sweep chart with "nothing to chart", not a
	// parse error: there is one loader.
	if code, _, errOut := execCLI(t, "-display", "sweep", "-param", "n", realReport); code != 1 || !strings.Contains(errOut, "nothing to chart") {
		t.Errorf("sweep chart of a benchmark report: exit %d, stderr %q", code, errOut)
	}
}

// TestMetricNamesAreTheBenchmarks: -metric takes exactly BENCHMARK.json's
// names — every one of them, and no private spelling of any.
func TestMetricNamesAreTheBenchmarks(t *testing.T) {
	for _, bad := range []string{"runtime", "tokens", "run_ms", ""} {
		code, _, errOut := execCLI(t, "-display", "history", "-metric", bad, realReport)
		if code != 1 || !strings.Contains(errOut, strconv.Quote(bad)) || !strings.Contains(errOut, "BENCHMARK.json") {
			t.Errorf("-metric %q: exit %d, stderr %q; want a rejection naming it", bad, code, errOut)
		}
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		t.Fatal("no metric names read from BENCHMARK.json")
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if _, err := metricUnit(d.Name); err != nil {
			t.Errorf("BENCHMARK.json metric %s rejected: %v", d.Name, err)
		}
	}
}

// TestGitRevMarksDirtyTree: a sweep of uncommitted code must not be
// keyed under HEAD's hash.
func TestGitRevMarksDirtyTree(t *testing.T) {
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.invalid"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	git("init", "-q")
	tracked := filepath.Join(dir, "tracked.txt")
	if err := os.WriteFile(tracked, []byte("v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("add", "tracked.txt")
	git("commit", "-q", "-m", "one")
	head := git("rev-parse", "--short", "HEAD")

	if rev, err := gitRev(dir, ""); err != nil || rev != head {
		t.Errorf("clean tree: gitRev = %q, %v; want %q", rev, err, head)
	}
	if err := os.WriteFile(tracked, []byte("v2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rev, err := gitRev(dir, ""); err != nil || rev != head+"-dirty" {
		t.Errorf("modified file: gitRev = %q, %v; want %q", rev, err, head+"-dirty")
	}
	git("checkout", "-q", "tracked.txt")
	if err := os.WriteFile(filepath.Join(dir, "new.go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if rev, err := gitRev(dir, ""); err != nil || rev != head+"-dirty" {
		t.Errorf("untracked file: gitRev = %q, %v; want %q", rev, err, head+"-dirty")
	}
	if rev, err := gitRev(dir, "v1.0"); err != nil || rev != "v1.0" {
		t.Errorf("-rev override: gitRev = %q, %v; want v1.0", rev, err)
	}
	if _, err := gitRev(t.TempDir(), ""); err == nil {
		t.Error("gitRev outside a repository returned no error")
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
	if code, _, errOut := execCLI(t, "-display", "history"); code != 1 || !strings.Contains(errOut, "report files") {
		t.Errorf("display with no report files: exit %d, stderr %q", code, errOut)
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
		var want []string
		for _, v := range tc.want {
			want = append(want, fmt.Sprintf("sweep/cluster/shards=%g", v))
		}
		if got := names(readSweep(t, dir, "r1")); !slices.Equal(got, want) {
			t.Fatalf("%s swept %v, want %v", tc.spec, got, want)
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
	rows := readSweep(t, dir, "r1")
	if len(rows) != 3 {
		t.Fatalf("shards sweep entries %v, want 3", names(rows))
	}
	for _, r := range rows[1:] {
		if r.PerLayer["stream.tokens_per_tick"] != rows[0].PerLayer["stream.tokens_per_tick"] {
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
	if rows := readSweep(t, dir, "r1"); len(rows) != 3 {
		t.Fatalf("churn sweep entries %v, want 3", names(rows))
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
		rows := readSweep(t, dir, "cli")
		if len(rows) != 1 {
			t.Fatalf("%s sweep entries %v, want 1", tc.driver, names(rows))
		}
		if want, got := float64(tokens)/float64(ticks), rows[0].PerLayer["stream.tokens_per_tick"]; got != want || rows[0].PerLayer["cluster.ticks"] != float64(ticks) {
			t.Errorf("%s: sweep tokens_per_tick %g over %g ticks, the CLI run gives %d/%d = %g", tc.driver, got, rows[0].PerLayer["cluster.ticks"], tokens, ticks, want)
		}
	}
}
