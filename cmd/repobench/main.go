// Command repobench is the repository's performance observatory: a
// two-mode sweep-to-SVG harness in the spirit of reposurgeon's
// repobench (generate and display are separate so the expensive
// generate result can be kept around for repeated visualization). Its
// one datafile format is the repository benchmark's JSON report (what
// `bash benchmark/run.sh -out` writes and `-compare` reads) and its one
// metric vocabulary is BENCHMARK.json's.
//
// Generate mode (the default) sweeps one parameter through a lockstep
// driver and records each point as a workload entry of the report
// <datadir>/sweep-<revision>.json, named sweep/<driver>/<param>=<v>,
// with run_s, allocs and alloc_mib samples plus cluster.ticks,
// stream.tokens_per_tick and proc.heap_highwater_mib. Because every
// lockstep run is a pure function of the seed, the curves are
// reproducible measurements: re-running a sweep at the same revision
// adds one more sample to the same entries, and differences between
// revision files are code.
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
// Display mode renders an SVG line chart (pure Go, no gnuplot) of one
// BENCHMARK.json metric over the report files named as arguments:
//
//	repobench -display sweep -param n -metric run_s -o sweep.svg benchdata/*.json
//	    # X the swept value, one curve per revision and driver:
//	    # per-parameter scaling and per-commit regressions in one chart
//	repobench -display history -metric allocs -o history.svg a.json b.json
//	    # X the reports, oldest first, one curve per benchmark workload:
//	    # CI's bench-report artifacts, or `bash benchmark/run.sh -out`
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/svgplot"
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
		sweep   = fs.String("sweep", "", "generate mode: param=min:step:max with param n|k|loss|window|fanout|churn|shards")
		driver  = fs.String("driver", "cluster", "generate mode: cluster | stream | engine (lockstep/synchronous drivers)")
		display = fs.String("display", "", "display mode, over the report files given as arguments: sweep (one curve per revision and driver) | history (one curve per benchmark workload)")
		metric  = fs.String("metric", "run_s", "display mode: the BENCHMARK.json metric to chart")
		param   = fs.String("param", "n", "display sweep: which swept parameter to chart")
		outPath = fs.String("o", "", "display mode: output SVG file (default stdout)")
		datadir = fs.String("datadir", "benchdata", "generate mode: directory of the sweep report")
		rev     = fs.String("rev", "", "revision key of the sweep report (default: git rev-parse --short HEAD, -dirty with uncommitted changes)")
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
	case *display == "sweep" || *display == "history":
		err = displayChart(stdout, *outPath, *display, fs.Args(), *param, *metric)
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

// --- the datafile ---

// report is the benchmark's report file, declared down to the fields
// this command reads or writes; benchmark/report.go owns the schema.
type report struct {
	Header    header     `json:"header"`
	Workloads []workload `json:"workloads"`
}

type header struct {
	Revision string `json:"revision"`
	Time     string `json:"time"` // RFC 3339, UTC
}

type workload struct {
	Name string `json:"name"`
	// Samples holds every sample's value of each end-to-end metric; the
	// reported number is the median.
	Samples  map[string][]float64 `json:"samples"`
	PerLayer map[string]float64   `json:"per_layer"`
}

// loadReport reads one report file, whichever command wrote it.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// value is the workload's reading of a metric: the median of an
// end-to-end metric's samples, or the traced pass's per-layer number.
func (w *workload) value(metric string) (float64, bool) {
	if xs := w.Samples[metric]; len(xs) > 0 {
		return sim.Summarize(xs).Median, true
	}
	v, ok := w.PerLayer[metric]
	return v, ok
}

// metricUnit looks a metric up in BENCHMARK.json, the one list of metric
// names, found in the working directory or the nearest one above it
// (the repository root, wherever inside the checkout the command runs).
func metricUnit(name string) (string, error) {
	dir, err := filepath.Abs(".")
	if err != nil {
		return "", err
	}
	var data []byte
	for {
		if data, err = os.ReadFile(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
		if !errors.Is(err, os.ErrNotExist) || dir == filepath.Dir(dir) {
			return "", fmt.Errorf("looking for BENCHMARK.json, which names the metrics: %w", err)
		}
		dir = filepath.Dir(dir)
	}
	type defs []struct{ Name, Unit string }
	var m struct {
		EndToEnd defs `json:"end_to_end"`
		PerLayer defs `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if d.Name == name {
			return d.Unit, nil
		}
	}
	return "", fmt.Errorf("unknown -metric %q: BENCHMARK.json lists no end_to_end or per_layer metric of that name", name)
}

// --- generate mode ---

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

// gitRev resolves the sweep report's key: the short git revision of
// the checkout at dir, overridable with -rev (used by tests and by
// sweeps of historical checkouts built elsewhere). A tree with
// uncommitted changes is <rev>-dirty: what it measures is not the
// committed revision's code and must not land in that revision's curve.
func gitRev(dir, override string) (string, error) {
	if override != "" {
		return override, nil
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return "", fmt.Errorf("resolving git revision (pass -rev to override): git %s: %w", args[0], err)
		}
		return strings.TrimSpace(string(out)), nil
	}
	rev, err := git("rev-parse", "--short", "HEAD")
	if err != nil {
		return "", err
	}
	changes, err := git("status", "--porcelain")
	if err != nil {
		return "", err
	}
	if changes != "" {
		rev += "-dirty"
	}
	return rev, nil
}

func generate(stdout io.Writer, datadir, revOverride, driver, sweepSpec string, fx fixed) error {
	param, min, step, max, err := parseSweep(sweepSpec)
	if err != nil {
		return err
	}
	rev, err := gitRev(".", revOverride)
	if err != nil {
		return err
	}
	path := filepath.Join(datadir, "sweep-"+rev+".json")
	rep, err := loadReport(path)
	if errors.Is(err, os.ErrNotExist) {
		rep, err = &report{}, nil
	}
	if err != nil {
		return err
	}
	rep.Header = header{Revision: rev, Time: time.Now().UTC().Format(time.RFC3339)}

	// Walk the grid by index, not by float accumulation: v = min + i*step
	// has one rounding error per point instead of i accumulated ones, so
	// endpoints land exactly (the accumulating loop's half-step tolerance
	// silently dropped max for integer grids like shards=1:1:4, where
	// drift pushed the last point past max+step/2). The epsilon absorbs
	// representation error in (max-min)/step for fractional steps like
	// 0:0.1:0.4; rounding to 9 decimals keeps values like
	// 0.30000000000000004 out of entry names and labels.
	nsteps := int(math.Floor((max-min)/step + 1e-9))
	for i := 0; i <= nsteps; i++ {
		v := math.Round((min+float64(i)*step)*1e9) / 1e9
		m, ticks, tokensPerTick, err := measure(driver, param, v, fx)
		if err != nil {
			return fmt.Errorf("%s sweep %s=%g: %w", driver, param, v, err)
		}
		w := rep.entry(fmt.Sprintf("sweep/%s/%s=%g", driver, param, v))
		w.Samples["run_s"] = append(w.Samples["run_s"], m.Runtime.Seconds())
		w.Samples["allocs"] = append(w.Samples["allocs"], float64(m.Allocs))
		w.Samples["alloc_mib"] = append(w.Samples["alloc_mib"], float64(m.Bytes)/(1<<20))
		w.PerLayer["cluster.ticks"] = float64(ticks)
		w.PerLayer["stream.tokens_per_tick"] = tokensPerTick
		w.PerLayer["proc.heap_highwater_mib"] = float64(m.HeapHighWater) / (1 << 20)
		fmt.Fprintf(stdout, "repobench: %s %s=%g run_s=%.4f allocs=%d heap_highwater_mib=%.2f tokens_per_tick=%.3f\n",
			driver, param, v, m.Runtime.Seconds(), m.Allocs, w.PerLayer["proc.heap_highwater_mib"], tokensPerTick)
	}

	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(datadir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "repobench: wrote %s\n", path)
	return nil
}

// entry returns the report's workload of that name, adding it if the
// report has none yet.
func (rep *report) entry(name string) *workload {
	for i := range rep.Workloads {
		if rep.Workloads[i].Name == name {
			return &rep.Workloads[i]
		}
	}
	rep.Workloads = append(rep.Workloads, workload{Name: name, Samples: map[string][]float64{}, PerLayer: map[string]float64{}})
	return &rep.Workloads[len(rep.Workloads)-1]
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
// sim.Measure and returns its cost, its length in ticks and the
// node-tokens it delivered per tick.
func measure(driver, param string, v float64, fx fixed) (m sim.Measurement, ticks int, tokensPerTick float64, err error) {
	iv := int(math.Round(v))
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
	m, err = sim.Measure(func() error {
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
	if ticks > 0 {
		tokensPerTick = tokens / float64(ticks)
	}
	return m, ticks, tokensPerTick, err
}

// --- display mode ---

var sweepName = regexp.MustCompile(`^sweep/([^/]+)/([a-z]+)=(.+)$`)

// displayChart renders one metric of the given report files, oldest
// report first, to outPath (stdout when empty). A sweep chart has X the
// swept value of param and one curve per revision and driver that
// measured it; a history chart has X the reports and one curve per
// benchmark workload (sweep points have their own chart).
func displayChart(stdout io.Writer, outPath, mode string, paths []string, param, metric string) error {
	unit, err := metricUnit(metric)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("-display %s needs report files as arguments (a -sweep's, or `bash benchmark/run.sh -out`'s)", mode)
	}
	reps := make([]*report, len(paths))
	for i, path := range paths {
		if reps[i], err = loadReport(path); err != nil {
			return err
		}
	}
	slices.SortStableFunc(reps, func(a, b *report) int { return strings.Compare(a.Header.Time, b.Header.Time) })

	label := fmt.Sprintf("%s (%s)", metric, unit)
	c := svgplot.Chart{Title: label + " vs " + param, XLabel: param, YLabel: label}
	if mode == "history" {
		c.Title, c.XLabel = label+" per report", "report:"
	}
	for i, rep := range reps {
		if mode == "history" {
			c.XLabel += fmt.Sprintf(" %d=%s", i+1, rep.Header.Revision)
		}
		for _, w := range rep.Workloads {
			y, ok := w.value(metric)
			if !ok {
				continue
			}
			name, x := w.Name, float64(i+1)
			point := sweepName.FindStringSubmatch(w.Name)
			if mode == "history" && point != nil {
				continue
			}
			if mode == "sweep" {
				if point == nil || point[2] != param {
					continue
				}
				if x, err = strconv.ParseFloat(point[3], 64); err != nil {
					return fmt.Errorf("report of %s: workload %q: %w", rep.Header.Revision, w.Name, err)
				}
				name = rep.Header.Revision + "/" + point[1]
			}
			at := slices.IndexFunc(c.Series, func(s svgplot.Series) bool { return s.Name == name })
			if at < 0 {
				at = len(c.Series)
				c.Series = append(c.Series, svgplot.Series{Name: name})
			}
			c.Series[at].X = append(c.Series[at].X, x)
			c.Series[at].Y = append(c.Series[at].Y, y)
		}
	}
	if len(c.Series) == 0 {
		return fmt.Errorf("nothing to chart: no workload in the %d reports read carries %s for a %s chart", len(reps), metric, mode)
	}
	if outPath != "" {
		return os.WriteFile(outPath, []byte(c.SVG()), 0o644)
	}
	_, err = io.WriteString(stdout, c.SVG())
	return err
}
