// Command repobench is the repository's performance observatory: a
// two-mode sweep-to-SVG harness in the spirit of reposurgeon's
// repobench (generate and display are separate so the expensive
// generate result can be kept around for repeated visualization).
//
// Generate mode (the default) sweeps one parameter through a lockstep
// driver, measures each point (wall runtime, allocations, allocated
// bytes, heap high-water via runtime.ReadMemStats, delivered
// tokens/tick) and appends one row per point to a datafile named after
// the current git revision under -datadir. Because every lockstep run
// is a pure function of the seed, the curves are reproducible
// measurements: re-running a sweep at the same revision appends
// identical rows, and differences between revision files are code.
//
//	repobench -driver cluster -sweep n=8:8:32 -k 16 -loss 0.2
//	repobench -driver stream  -sweep window=1:1:6 -generations 8
//	repobench -driver stream  -sweep loss=0:0.1:0.4
//	repobench -driver cluster -sweep churn=0:1:3   # crash/join pairs
//	repobench -driver cluster -sweep shards=1:1:4  # sharded lockstep scaling
//	repobench -driver engine  -sweep k=16:16:96    # synchronous engine
//
// Sweep grammar: -sweep param=min:step:max with param one of
// n | k | loss | window | fanout | churn | shards. The remaining
// parameters are fixed by their flags.
//
// Display mode renders SVG line charts (pure Go, no gnuplot):
//
//	repobench -display sweep -param n -stat runtime -o sweep.svg
//	    # one curve per git revision datafile: per-parameter scaling
//	    # and per-commit regressions from the same chart
//	repobench -display history -stat allocs -o history.svg
//	    # folds the committed BENCH_PR*.json baselines into a
//	    # per-commit trajectory, one curve per guarded benchmark
//
// Stats: runtime (ms; history: ns/op), allocs, bytes, heap
// (generate-mode datafiles only), tokens (tokens/tick, generate-mode
// only).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/svgplot"

	"repro/internal/adversary"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fixed are the non-swept run parameters: the gossip CLIs' own flag
// block, so a sweep point runs through exactly the path `cmd/cluster`
// or `cmd/stream` would take with the same flags, plus the stream's
// two.
type fixed struct {
	cliutil.GossipFlags
	window, gens int
}

// sweepMaxTicks caps a sweep point's run: sweeps visit hostile corners
// the drivers' default cap is too tight for.
const sweepMaxTicks = 500000

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fx := fixed{GossipFlags: cliutil.GossipFlags{Transport: "lockstep", MaxTicks: sweepMaxTicks}}
	var (
		sweep    = fs.String("sweep", "", "generate mode: param=min:step:max with param n|k|loss|window|fanout|churn|shards")
		driver   = fs.String("driver", "cluster", "generate mode: cluster | stream | engine (lockstep/synchronous drivers)")
		display  = fs.String("display", "", "display mode: sweep (benchdata curves per revision) | history (BENCH_PR*.json trajectory)")
		stat     = fs.String("stat", "runtime", "statistic to chart: runtime | allocs | bytes | heap | tokens")
		param    = fs.String("param", "n", "display sweep: which swept parameter to chart")
		outPath  = fs.String("o", "", "display mode: output SVG file (default stdout)")
		datadir  = fs.String("datadir", "benchdata", "datafile directory")
		benchDir = fs.String("benchdir", ".", "directory holding the committed BENCH_PR*.json baselines")
		rev      = fs.String("rev", "", "revision key for the datafile name (default: git rev-parse --short HEAD)")
		guard    = fs.String("guard", "BenchmarkEngineRound,BenchmarkWireRoundTrip,BenchmarkStreamSustained,BenchmarkEmitInsertSteadyState,BenchmarkChurnSteadyState,BenchmarkStreamWindowSweep/W=4,BenchmarkLockstepSharded/shards=1,BenchmarkLockstepSharded/shards=4",
			"display history: comma-separated benchmarks to chart")
	)
	fs.IntVar(&fx.N, "n", 16, "nodes")
	fs.IntVar(&fx.K, "k", 16, "tokens per run / per generation")
	fs.IntVar(&fx.Payload, "payload", 128, "token payload bits")
	fs.IntVar(&fx.window, "window", 4, "stream window (stream driver)")
	fs.IntVar(&fx.gens, "generations", 8, "stream length (stream driver)")
	fs.IntVar(&fx.Fanout, "fanout", 2, "peers per emission")
	fs.IntVar(&fx.Shards, "shards", 1, "lockstep worker shards (cluster/stream drivers)")
	fs.Float64Var(&fx.Loss, "loss", 0, "packet loss rate in [0,1)")
	fs.Int64Var(&fx.Seed, "seed", 1, "base seed (runs are pure functions of it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch {
	case *display != "" && *sweep != "":
		err = fmt.Errorf("-sweep and -display are mutually exclusive")
	case *display == "sweep":
		err = withOut(*outPath, stdout, func(w io.Writer) error {
			return displaySweep(w, *datadir, *param, *stat)
		})
	case *display == "history":
		err = withOut(*outPath, stdout, func(w io.Writer) error {
			return displayHistory(w, *benchDir, strings.Split(*guard, ","), *stat)
		})
	case *display != "":
		err = fmt.Errorf("unknown -display mode %q (want sweep or history)", *display)
	case *sweep == "":
		err = fmt.Errorf("nothing to do: pass -sweep (generate) or -display (render)")
	default:
		err = generate(stdout, *datadir, *rev, *driver, *sweep, fx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	return 0
}

// withOut routes display output to a file or stdout.
func withOut(path string, stdout io.Writer, fn func(io.Writer) error) error {
	if path == "" {
		return fn(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- generate mode ---

// row is one measured sweep point, as stored in the datafile.
type row struct {
	driver, param string
	value         float64
	runtimeNs     int64
	allocs, bytes uint64
	heapHighWater uint64
	tokensPerTick float64
}

const fileHeader = `# repobench datafile v1 — one row per measured lockstep run
# driver param value runtime_ns allocs bytes heap_highwater tokens_per_tick
`

func (r row) format() string {
	return fmt.Sprintf("%s %s %g %d %d %d %d %g\n",
		r.driver, r.param, r.value, r.runtimeNs, r.allocs, r.bytes, r.heapHighWater, r.tokensPerTick)
}

func parseRow(line string) (row, error) {
	f := strings.Fields(line)
	if len(f) != 8 {
		return row{}, fmt.Errorf("datafile row has %d fields, want 8: %q", len(f), line)
	}
	var r row
	r.driver, r.param = f[0], f[1]
	var err error
	ints := []struct {
		dst *uint64
		s   string
	}{{&r.allocs, f[4]}, {&r.bytes, f[5]}, {&r.heapHighWater, f[6]}}
	if r.value, err = strconv.ParseFloat(f[2], 64); err != nil {
		return row{}, fmt.Errorf("bad value in row %q: %w", line, err)
	}
	if r.runtimeNs, err = strconv.ParseInt(f[3], 10, 64); err != nil {
		return row{}, fmt.Errorf("bad runtime_ns in row %q: %w", line, err)
	}
	for _, iv := range ints {
		if *iv.dst, err = strconv.ParseUint(iv.s, 10, 64); err != nil {
			return row{}, fmt.Errorf("bad counter in row %q: %w", line, err)
		}
	}
	if r.tokensPerTick, err = strconv.ParseFloat(f[7], 64); err != nil {
		return row{}, fmt.Errorf("bad tokens_per_tick in row %q: %w", line, err)
	}
	return r, nil
}

var sweepRe = regexp.MustCompile(`^(n|k|loss|window|fanout|churn|shards)=([^:]+):([^:]+):([^:]+)$`)

// parseSweep parses the param=min:step:max grammar.
func parseSweep(s string) (param string, min, step, max float64, err error) {
	m := sweepRe.FindStringSubmatch(s)
	if m == nil {
		return "", 0, 0, 0, fmt.Errorf("bad -sweep %q: want param=min:step:max with param n|k|loss|window|fanout|churn|shards", s)
	}
	vals := make([]float64, 3)
	for i, f := range m[2:5] {
		if vals[i], err = strconv.ParseFloat(f, 64); err != nil {
			return "", 0, 0, 0, fmt.Errorf("bad -sweep bound %q: %w", f, err)
		}
	}
	min, step, max = vals[0], vals[1], vals[2]
	if step <= 0 {
		return "", 0, 0, 0, fmt.Errorf("-sweep step must be positive, got %g", step)
	}
	if max < min {
		return "", 0, 0, 0, fmt.Errorf("-sweep max %g below min %g", max, min)
	}
	return m[1], min, step, max, nil
}

// gitRev resolves the datafile key: the short git revision of the
// working tree, overridable with -rev (used by tests and by sweeps of
// historical checkouts built elsewhere).
func gitRev(override string) (string, error) {
	if override != "" {
		return override, nil
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", fmt.Errorf("resolving git revision (pass -rev to override): %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

func generate(stdout io.Writer, datadir, revOverride, driver, sweepSpec string, fx fixed) error {
	param, min, step, max, err := parseSweep(sweepSpec)
	if err != nil {
		return err
	}
	rev, err := gitRev(revOverride)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(datadir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(datadir, rev+".dat")
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if os.IsNotExist(statErr) {
		if _, err := f.WriteString(fileHeader); err != nil {
			return err
		}
	}

	// Walk the grid by index, not by float accumulation: v = min + i*step
	// has one rounding error per point instead of i accumulated ones, so
	// endpoints land exactly (the accumulating loop's half-step tolerance
	// silently dropped max for integer grids like shards=1:1:4, where
	// drift pushed the last point past max+step/2). The epsilon absorbs
	// representation error in (max-min)/step for fractional steps like
	// 0:0.1:0.4; rounding to 9 decimals keeps values like
	// 0.30000000000000004 out of datafiles and labels.
	nsteps := int(math.Floor((max-min)/step + 1e-9))
	for i := 0; i <= nsteps; i++ {
		v := math.Round((min+float64(i)*step)*1e9) / 1e9
		r, err := measure(driver, param, v, fx)
		if err != nil {
			return fmt.Errorf("%s sweep %s=%g: %w", driver, param, v, err)
		}
		if _, err := f.WriteString(r.format()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "repobench: %s %s=%g runtime=%.1fms allocs=%d heap=%dB tokens/tick=%.3f\n",
			driver, param, v, float64(r.runtimeNs)/1e6, r.allocs, r.heapHighWater, r.tokensPerTick)
	}
	fmt.Fprintf(stdout, "repobench: appended to %s\n", path)
	return nil
}

// churnSchedule builds the swept churn workload as a -churn value:
// `pairs` crash/join pairs spread over the run.
func churnSchedule(pairs int) string {
	var parts []string
	for i := 0; i < pairs; i++ {
		parts = append(parts, fmt.Sprintf("crash:%d:1,join:%d:1", 15+20*i, 25+20*i))
	}
	return strings.Join(parts, ",")
}

// measure runs one sweep point through the selected driver under
// sim.Measure and converts the outcome to a datafile row.
func measure(driver, param string, v float64, fx fixed) (row, error) {
	iv := int(math.Round(v))
	r := row{driver: driver, param: param, value: v}

	setInt := map[string]*int{"n": &fx.N, "k": &fx.K, "window": &fx.window, "fanout": &fx.Fanout, "shards": &fx.Shards}
	switch param {
	case "loss":
		fx.Loss = v
	case "churn":
		fx.Churn = churnSchedule(iv)
	default:
		*setInt[param] = iv
	}

	var tokens float64
	var ticks int
	m, err := sim.Measure(func() error {
		switch driver {
		case "cluster":
			cfg, err := fx.Open(nil)
			if err != nil {
				return err
			}
			res, err := cluster.Run(context.Background(), cfg, fx.Tokens())
			if err != nil {
				return err
			}
			if !res.Completed {
				return fmt.Errorf("cluster run incomplete at tick cap")
			}
			done := 0
			for _, nm := range res.Nodes {
				if nm.Done {
					done++
				}
			}
			tokens, ticks = float64(done*fx.K), res.Ticks
		case "stream":
			cfg, err := fx.OpenStream(nil, fx.window, fx.gens)
			if err != nil {
				return err
			}
			res, err := stream.Run(context.Background(), cfg)
			if err != nil {
				return err
			}
			if !res.Completed {
				return fmt.Errorf("stream run incomplete at tick cap")
			}
			tokens, ticks = float64(res.TokensDelivered), res.Ticks
		case "engine":
			if fx.Loss > 0 || fx.Churn != "" {
				return fmt.Errorf("the synchronous engine driver has no loss/churn axes")
			}
			if param == "shards" || fx.Shards > 1 {
				return fmt.Errorf("the synchronous engine driver has no shards axis (use -driver cluster or stream)")
			}
			if fx.K > fx.N {
				return fmt.Errorf("engine driver needs k <= n (one source token per node), got k=%d n=%d", fx.K, fx.N)
			}
			adv := adversary.NewRandomConnected(fx.N, fx.N/2, fx.Seed)
			rounds, err := exp.RunIndexedUntilDecoded(fx.N, fx.K, fx.Payload, adv, fx.Seed)
			if err != nil {
				return err
			}
			tokens, ticks = float64(fx.N*fx.K), rounds
		default:
			return fmt.Errorf("unknown -driver %q (want cluster, stream or engine)", driver)
		}
		return nil
	})
	if err != nil {
		return row{}, err
	}
	r.runtimeNs = m.Runtime.Nanoseconds()
	r.allocs, r.bytes, r.heapHighWater = m.Allocs, m.Bytes, m.HeapHighWater
	if ticks > 0 {
		r.tokensPerTick = tokens / float64(ticks)
	}
	return r, nil
}

// --- display mode ---

// statOf extracts the charted statistic from a datafile row.
func statOf(r row, stat string) (float64, error) {
	switch stat {
	case "runtime":
		return float64(r.runtimeNs) / 1e6, nil
	case "allocs":
		return float64(r.allocs), nil
	case "bytes":
		return float64(r.bytes), nil
	case "heap":
		return float64(r.heapHighWater), nil
	case "tokens":
		return r.tokensPerTick, nil
	}
	return 0, fmt.Errorf("unknown -stat %q (want runtime, allocs, bytes, heap or tokens)", stat)
}

func statLabel(stat string) string {
	switch stat {
	case "runtime":
		return "runtime (ms)"
	case "allocs":
		return "allocations"
	case "bytes":
		return "allocated bytes"
	case "heap":
		return "heap high-water (B)"
	case "tokens":
		return "tokens/tick"
	}
	return stat
}

// readDatafile parses one revision's rows; comment and blank lines are
// skipped.
func readDatafile(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseRow(line)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// displaySweep charts one swept parameter: X the parameter value, one
// curve per (revision, driver) that measured it.
func displaySweep(w io.Writer, datadir, param, stat string) error {
	if _, err := statOf(row{}, stat); err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(datadir, "*.dat"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no datafiles under %s (run a -sweep first)", datadir)
	}
	sort.Strings(paths)
	series := map[string]*svgplot.Series{}
	var order []string
	for _, path := range paths {
		rows, err := readDatafile(path)
		if err != nil {
			return err
		}
		rev := strings.TrimSuffix(filepath.Base(path), ".dat")
		for _, r := range rows {
			if r.param != param {
				continue
			}
			key := rev + "/" + r.driver
			s, ok := series[key]
			if !ok {
				s = &svgplot.Series{Name: key}
				series[key] = s
				order = append(order, key)
			}
			y, _ := statOf(r, stat)
			s.X = append(s.X, r.value)
			s.Y = append(s.Y, y)
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("no rows sweeping %q in %s", param, datadir)
	}
	c := svgplot.Chart{
		Title:  fmt.Sprintf("%s vs %s", statLabel(stat), param),
		XLabel: param, YLabel: statLabel(stat),
	}
	for _, key := range order {
		c.Series = append(c.Series, *series[key])
	}
	_, err = io.WriteString(w, c.SVG())
	return err
}

var prNum = regexp.MustCompile(`BENCH_PR(\d+)\.json$`)

// displayHistory folds the committed BENCH_PR*.json baselines into a
// per-commit trajectory chart: X the PR number, one curve per guarded
// benchmark.
func displayHistory(w io.Writer, benchdir string, guard []string, stat string) error {
	var field func(benchfmt.Entry) float64
	switch stat {
	case "runtime":
		field = func(e benchfmt.Entry) float64 { return e.NsPerOp }
	case "allocs":
		field = func(e benchfmt.Entry) float64 { return e.AllocsPerOp }
	case "bytes":
		field = func(e benchfmt.Entry) float64 { return e.BytesPerOp }
	default:
		return fmt.Errorf("history charts support -stat runtime, allocs or bytes, not %q", stat)
	}
	paths, err := benchfmt.Baselines(benchdir)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_PR*.json baselines in %s", benchdir)
	}
	c := svgplot.Chart{
		Title:  fmt.Sprintf("committed baseline trajectory: %s per op", stat),
		XLabel: "PR", YLabel: statLabel(stat),
	}
	bySeries := map[string]*svgplot.Series{}
	for _, name := range guard {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		bySeries[name] = &svgplot.Series{Name: strings.TrimPrefix(name, "Benchmark")}
	}
	for _, path := range paths {
		base, err := benchfmt.ReadBaseline(path)
		if err != nil {
			return err
		}
		m := prNum.FindStringSubmatch(path)
		if m == nil {
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		for name, s := range bySeries {
			if e, ok := base.Benchmarks[name]; ok {
				s.X = append(s.X, float64(pr))
				s.Y = append(s.Y, field(e))
			}
		}
	}
	// Series in guard order, dropping benchmarks no baseline recorded.
	for _, name := range guard {
		name = strings.TrimSpace(name)
		if s, ok := bySeries[name]; ok && len(s.X) > 0 {
			c.Series = append(c.Series, *s)
		}
	}
	if len(c.Series) == 0 {
		return fmt.Errorf("none of the guarded benchmarks appear in the baselines under %s", benchdir)
	}
	_, err = io.WriteString(w, c.SVG())
	return err
}
