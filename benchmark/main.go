// Command benchmark is the repository's benchmark: six workloads over
// the gossip runtimes, every output checked, end-to-end metrics from
// untraced cold-process samples, and a traced pass that attributes each
// run to the layers. BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md says why each was chosen.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one set, one JSON result line
//	benchmark [-seed N] [-seconds S] [-out report.json]       all workloads, both passes, interleaved
//	benchmark -compare a.json b.json                          verdict per workload × metric
//	benchmark -selfcheck                                      two reports of this tree, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// manifest is BENCHMARK.json: the one list of workloads, metrics, units
// and bounds. The program reads it instead of repeating it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadManifest finds BENCHMARK.json from the repository root (where the
// contract's command runs) or from this directory (go run .).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "measure this workload alone and print the contract's result line")
	seed := fs.Int64("seed", 1, "the only input to workload generation")
	seconds := fs.Float64("seconds", 0, "how long one set measures (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
	out := fs.String("out", "", "write the full report as JSON, for -compare")
	doCompare := fs.Bool("compare", false, "compare two report files: -compare a.json b.json")
	selfcheck := fs.Bool("selfcheck", false, "take two full reports of this tree and compare them")
	child := fs.String("child", "", "internal: take one sample (run|setup|trace|kernels) and print it as JSON")
	kernelSeconds := fs.Float64("kernel-seconds", 0.2, "internal: time budget per kernel of a -child kernels sample")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *child != "" {
		w, err := findWorkload(*wname)
		if err != nil {
			return err
		}
		time.AfterFunc(childTimeout, func() { os.Exit(3) })
		s := takeSample(w, *seed, *child, time.Duration(*kernelSeconds*float64(time.Second)))
		return json.NewEncoder(stdout).Encode(s)
	}

	m, err := loadManifest()
	if err != nil {
		return err
	}
	if *doCompare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareFiles(m, fs.Arg(0), fs.Arg(1), stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(m.RunSeconds)
	}
	r, err := newRunner(stderr, *seconds)
	if err != nil {
		return err
	}
	if err := r.waitIdle(); err != nil {
		return err
	}

	switch {
	case *selfcheck:
		a := takeReport(m, r, *seed, *seconds)
		b := takeReport(m, r, *seed, *seconds)
		a.print(m, stdout)
		b.print(m, stdout)
		return compare(m, a, b, stdout)
	case *wname != "":
		w, err := findWorkload(*wname)
		if err != nil {
			return err
		}
		return contractRun(m, r, w, *seed, *seconds, *trace != 0, stdout, stderr)
	}
	rep := takeReport(m, r, *seed, *seconds)
	rep.print(m, stdout)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if failed := rep.failed(); failed > 0 {
		return fmt.Errorf("%d samples failed their checks", failed)
	}
	return nil
}

// contractRun measures one set and prints the contract's result line:
// every end-to-end metric from an untraced set, or every per-layer
// metric from a traced pass. The samples' own lines go to stderr.
func contractRun(m *manifest, r *runner, w workload, seed int64, seconds float64, trace bool, stdout, stderr io.Writer) error {
	newHeader(r, seed, seconds).print(stderr)
	s := &set{w: w, seed: seed, seconds: seconds, trace: trace}
	for s.next(r) {
	}
	for _, c := range s.all() {
		if c.Fail != "" {
			fmt.Fprintf(stderr, "FAILED %s %s slot %d: %s\n", c.Workload, c.Mode, c.Slot, c.Fail)
		}
	}
	attempted, failed, _ := s.counts()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if trace {
		values := s.perLayer()
		if len(values) == 0 {
			return fmt.Errorf("%s: the traced pass produced no per-layer numbers", w.Name)
		}
		for _, d := range m.PerLayer {
			res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		}
	} else {
		values := s.endToEnd()
		for _, d := range m.EndToEnd {
			if len(values[d.Name]) == 0 {
				return fmt.Errorf("%s: no sample passed its checks, so %s has no value", w.Name, d.Name)
			}
			res.Metrics[d.Name] = metricValue{Value: median(values[d.Name]), Unit: d.Unit}
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}
