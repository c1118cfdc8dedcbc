// Command benchguard parses `go test -bench` output and guards the
// repository's allocation budget: it compares allocs/op (and records
// ns/op alongside) against a committed JSON baseline and fails when a
// guarded benchmark regresses beyond a threshold.
//
// Two modes:
//
//	go test -run xxx -bench . -benchtime 1x -benchmem ./... |
//	    benchguard -write
//	        # regenerate the committed baseline from a bench run
//
//	go test -run xxx -bench . -benchtime 1x -benchmem ./... |
//	    benchguard -max-regress 0.20 \
//	        -guard BenchmarkEngineRound,BenchmarkWireRoundTrip,...
//	        # CI gate: exit 1 on a >20% allocs/op regression
//
// The baseline defaults to the newest committed BENCH_PR<n>.json in
// the current directory (highest n), resolved by
// benchfmt.LatestBaseline — rotating the baseline means committing one
// new file, with no flag or script edits. -baseline/-out override it.
//
// Only benchmarks that report allocations (b.ReportAllocs or
// -benchmem) appear in the parse; `/`-qualified sub-benchmark names
// (b.Run) are kept, with only the trailing -N cpu suffix stripped.
// Exit status: 1 on a gate failure, 2 on unusable input (unreadable
// baseline, garbled bench line, no benchmarks on stdin).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		write      = fs.Bool("write", false, "emit a baseline JSON from the bench output instead of comparing")
		out        = fs.String("out", "", "baseline file to write in -write mode (default: the resolved current baseline)")
		note       = fs.String("note", "go test -run xxx -bench . -benchtime 1x -benchmem ./... (see scripts/bench.sh)", "provenance note stored in the baseline")
		baseline   = fs.String("baseline", "", "committed baseline to compare against (default: newest BENCH_PR*.json)")
		maxRegress = fs.Float64("max-regress", 0.20, "allowed fractional allocs/op growth before failing")
		guard      = fs.String("guard", "BenchmarkEngineRound,BenchmarkWireRoundTrip,BenchmarkStreamSustained,BenchmarkEmitInsertSteadyState,BenchmarkChurnSteadyState,BenchmarkStreamWindowSweep/W=4,BenchmarkLockstepSharded/shards=1,BenchmarkLockstepSharded/shards=4,BenchmarkSpanCombineInto/shape=deep,BenchmarkSpanCombineInto/shape=wide,BenchmarkBitMatrixInsert/shape=deep,BenchmarkBitMatrixInsert/shape=wide",
			"comma-separated benchmarks the gate enforces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cur, err := benchfmt.Parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchguard: reading bench output:", err)
		return 2
	}
	if len(cur) == 0 {
		fmt.Fprintln(stderr, "benchguard: no benchmark lines with allocs/op found on stdin")
		return 2
	}

	if *write {
		path := *out
		if path == "" {
			if path, err = benchfmt.LatestBaseline("."); err != nil {
				fmt.Fprintln(stderr, "benchguard:", err)
				return 2
			}
		}
		if err := benchfmt.WriteBaseline(path, &benchfmt.Baseline{Note: *note, Benchmarks: cur}); err != nil {
			fmt.Fprintln(stderr, "benchguard:", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchguard: wrote %d benchmarks to %s\n", len(cur), path)
		return 0
	}

	path := *baseline
	if path == "" {
		if path, err = benchfmt.LatestBaseline("."); err != nil {
			fmt.Fprintln(stderr, "benchguard:", err)
			return 2
		}
	}
	base, err := benchfmt.ReadBaseline(path)
	if err != nil {
		fmt.Fprintln(stderr, "benchguard:", err)
		return 2
	}

	comps, ok := benchfmt.Compare(base.Benchmarks, cur, strings.Split(*guard, ","), *maxRegress)
	for _, c := range comps {
		switch {
		case c.MissingBaseline:
			fmt.Fprintf(stdout, "benchguard: FAIL %s: missing from baseline %s\n", c.Name, path)
		case c.MissingCurrent:
			fmt.Fprintf(stdout, "benchguard: FAIL %s: missing from current bench output\n", c.Name)
		default:
			status := "ok"
			if !c.OK {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "benchguard: %-4s %-34s allocs/op %10.1f -> %10.1f (limit %.1f)  ns/op %12.0f -> %12.0f\n",
				status, c.Name, c.Base.AllocsPerOp, c.Cur.AllocsPerOp, c.Limit, c.Base.NsPerOp, c.Cur.NsPerOp)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
