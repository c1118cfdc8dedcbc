// Command experiments regenerates the repository's experiment tables
// E1..E14 — the measured counterparts of the paper's theorems (see
// DESIGN.md for the index).
//
// Trials within each sweep run on a worker pool; results are
// bit-identical at every worker count. Ctrl-C cancels cleanly.
//
// Usage:
//
//	experiments [-run E3] [-trials 5] [-quick] [-seed 1] [-workers 0] [-progress]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/exp"
)

func main() {
	var (
		run      = flag.String("run", "", "run a single experiment by ID (e.g. E3); default all")
		trials   = flag.Int("trials", 0, "trials per data point (0 = experiment default)")
		quick    = flag.Bool("quick", false, "shrink sweeps to quick sizes")
		seed     = flag.Int64("seed", 1, "base random seed")
		asJSON   = flag.Bool("json", false, "emit results as a JSON array instead of tables")
		workers  = flag.Int("workers", 0, "trial worker pool width (0 = GOMAXPROCS, 1 = serial)")
		progress = flag.Bool("progress", false, "print per-sweep trial progress to stderr")
	)
	flag.Parse()
	if err := realMain(os.Stdout, *run, *trials, *quick, *seed, *asJSON, *workers, *progress); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain(w io.Writer, run string, trials int, quick bool, seed int64, asJSON bool, workers int, progress bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := exp.Config{Trials: trials, Quick: quick, Seed: seed, Workers: workers, Ctx: ctx}
	if progress {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d trials", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	suite := exp.All()
	if run != "" {
		e, err := exp.Find(run)
		if err != nil {
			return err
		}
		suite = []exp.Experiment{e}
	}
	var jsonOut []map[string]any
	for _, e := range suite {
		if !asJSON {
			fmt.Fprintf(w, "== %s: %s\n", e.ID, e.Title)
		}
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if asJSON {
			m := tbl.MarshalTable()
			m["id"] = e.ID
			m["title"] = e.Title
			jsonOut = append(jsonOut, m)
			continue
		}
		fmt.Fprintln(w, tbl.String())
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}
