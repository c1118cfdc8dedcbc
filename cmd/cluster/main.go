// Command cluster disseminates k tokens across an n-node asynchronous
// gossip cluster (goroutine per node, serialized packets over an
// in-process transport) and reports completion-time and overhead
// tables. It is the interactive surface of internal/cluster, the
// asynchronous counterpart of the synchronous dynnet simulator; see
// DESIGN.md ("Async cluster runtime", "Node runtime and drivers",
// "Dynamic membership & churn") for the architecture and wire format.
//
// Quick start:
//
//	go run ./cmd/cluster -n 64 -k 32 -loss 0.2          # lossy async coded gossip
//	go run ./cmd/cluster -mode forward -loss 0.2        # store-and-forward baseline
//	go run ./cmd/cluster -transport lockstep -seed 7    # deterministic, tick-counted
//	go run ./cmd/cluster -n 32 -delay 2ms -reorder 0.3  # hostile-network middlewares
//	go run ./cmd/cluster -transport lockstep -churn "crash:20:1,join:30:1"
//	                                                    # dynamic membership
//	go run ./cmd/cluster -transport lockstep -adversary adaptive -churn "crashmax:30:1,restart:60:1"
//	                                                    # adversarial topology + targeted crashes
//	go run ./cmd/cluster -mutate "dup:0.05,stale:0.05,flip:0.02"
//	                                                    # hostile-packet injection
//
// Transports: "chan" (default) runs the concurrent runtime on buffered
// channels, a tick every -interval of wall time, and reports
// milliseconds (ticks × -interval); "lockstep" runs the deterministic
// single-threaded driver, whose runs are a pure function of -seed and
// report ticks. -delay, -churn and every telemetry stamp count those
// ticks under both.
//
// Churn: -churn takes a comma-separated kind:tick:count schedule
// (join, leave, crash, restart, rejoin). Completion then means every
// node live at the end holds all k tokens.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// options carries every flag so tests drive run() without a process.
type options struct {
	cliutil.GossipFlags
	mode string
}

func main() {
	var o options
	o.Register(flag.CommandLine, "cluster", 64, 32)
	flag.StringVar(&o.mode, "mode", "coded", "gossip mode: coded | forward")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	var mode cluster.Mode
	switch o.mode {
	case "coded":
		mode = cluster.Coded
	case "forward":
		mode = cluster.Forward
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
	cfg, err := o.Open(nil,
		"driver", "cluster", "mode", o.mode, "n", fmt.Sprint(o.N), "k", fmt.Sprint(o.K),
		"loss", fmt.Sprint(o.Loss), "transport", o.Transport, "seed", fmt.Sprint(o.Seed))
	if err != nil {
		return err
	}
	cfg.Mode = mode
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := cluster.Run(ctx, cfg, o.Tokens())
	if err != nil {
		return err
	}
	if err := o.Export(cfg.Telemetry, "cluster", false); err != nil {
		return err
	}

	t := &sim.Table{
		Caption: fmt.Sprintf("cluster: %s gossip, n=%d k=%d payload=%d bits, loss=%.2f transport=%s seed=%d",
			mode, o.N, o.K, o.Payload, o.Loss, o.Transport, o.Seed),
		Header: []string{"metric", "value"},
	}
	t.AddRow("completed", fmt.Sprintf("%v", res.Completed))
	if cfg.Lockstep {
		t.AddRow("ticks", sim.I(res.Ticks))
		if s := sim.Summarize(cluster.DoneTicks(res.Nodes)); s.N > 0 {
			t.AddRow("ticks-to-rank-k min/mean/max", fmt.Sprintf("%s / %s / %s", sim.F(s.Min), sim.F(s.Mean), sim.F(s.Max)))
		}
	} else {
		t.AddRow("elapsed", res.Elapsed.Round(time.Millisecond).String())
		if s := sim.Summarize(cluster.DoneTicks(res.Nodes)); s.N > 0 {
			ms := 1e3 * o.Interval.Seconds() // an async tick is one -interval
			t.AddRow("time-to-rank-k min/mean/max", fmt.Sprintf("%.1fms / %.1fms / %.1fms", ms*s.Min, ms*s.Mean, ms*s.Max))
		}
	}
	t.AddRow("packets sent", sim.I(int(res.PacketsOut)))
	t.AddRow("packets received", sim.I(int(res.PacketsIn)))
	t.AddRow("packets dropped", sim.I(int(res.Dropped)))
	t.AddRow("protocol bits sent", sim.I(int(res.BitsOut)))
	if cfg.Churn != nil {
		spawned, hellos := 0, int64(0)
		for _, m := range res.Nodes {
			if m.Spawned {
				spawned++
			}
			hellos += m.HellosOut
		}
		t.AddRow("churn schedule", cfg.Churn.String())
		t.AddRow("nodes spawned / live at end", fmt.Sprintf("%d / %d", spawned, res.FinalLive))
		t.AddRow("hellos sent", sim.I(int(hellos)))
	}
	// Dissemination work per node-token, over the nodes that finished:
	// a timed-out run must not pretend all n nodes were served.
	done := 0
	for _, m := range res.Nodes {
		if m.Done {
			done++
		}
	}
	if done > 0 {
		t.AddRow("packets per done-node-token", sim.F(float64(res.PacketsOut)/float64(done*o.K)))
	}
	if res.Completed {
		t.AddNote("all %d live nodes reached rank %d; decoded tokens verified against the originals", res.FinalLive, o.K)
	} else {
		t.AddNote("run did NOT complete (timeout/tick cap); counters cover the partial run, per-node summaries cover only nodes that finished")
	}
	fmt.Fprint(w, t.String())
	if !res.Completed {
		return fmt.Errorf("dissemination incomplete")
	}
	return nil
}
