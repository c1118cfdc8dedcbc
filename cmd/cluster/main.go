// Command cluster disseminates k tokens across an n-node asynchronous
// gossip cluster (goroutine per node, serialized packets over an
// in-process transport) and reports completion-time and overhead
// tables. It is the interactive surface of internal/cluster, the
// asynchronous counterpart of the synchronous dynnet simulator; see
// DESIGN.md ("Async cluster runtime", "Dynamic membership & churn")
// for the architecture and wire format.
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
// channels with wall-clock metrics; "lockstep" runs the deterministic
// single-threaded driver, whose runs are a pure function of -seed and
// report ticks instead of milliseconds.
//
// Churn: -churn takes a comma-separated kind:tick:count schedule
// (join, leave, crash, restart, rejoin); ticks map to At×-interval
// wall offsets under the async transport. Completion then means every
// node live at the end holds all k tokens.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/token"
)

func main() {
	var (
		n        = flag.Int("n", 64, "number of nodes")
		k        = flag.Int("k", 32, "number of tokens")
		payload  = flag.Int("payload", 128, "token payload size in bits")
		loss     = flag.Float64("loss", 0, "packet loss rate in [0,1)")
		fanout   = flag.Int("fanout", 2, "peers contacted per emission")
		shards   = flag.Int("shards", 1, "lockstep worker shards (bit-identical to serial at any count)")
		mode     = flag.String("mode", "coded", "gossip mode: coded | forward")
		tp       = flag.String("transport", "chan", "transport: chan (async) | lockstep (deterministic)")
		seed     = flag.Int64("seed", 1, "random seed (lockstep runs are a pure function of it)")
		interval = flag.Duration("interval", 500*time.Microsecond, "async emission pacing")
		timeout  = flag.Duration("timeout", 30*time.Second, "async wall-clock cap")
		delay    = flag.Duration("delay", 0, "async per-packet latency upper bound (uniform in [delay/10, delay])")
		reorder  = flag.Float64("reorder", 0, "packet reordering rate in [0,1)")
		buffer   = flag.Int("buffer", 0, "per-node inbox buffer (0 = auto)")
		maxTicks = flag.Int("maxticks", 0, "lockstep tick cap (0 = default)")
		churn    = flag.String("churn", "", `membership schedule, e.g. "join:500:2,crash:1000:1" (kinds: join|leave|crash|restart|rejoin|crashmax|crashfrontier)`)
		adv      = flag.String("adversary", "", `topology adversary name[:params] (random | rotating-path | static-<topology> | tstable:<T> | tinterval:<T> | adaptive | trace:<file>)`)
		mutate   = flag.String("mutate", "", `hostile-packet mutation spec, e.g. "dup:0.05,stale:0.1" (ops: dup|stale|trunc|flip|xgen|all)`)
		trace    = flag.String("trace", "", "trace the run and render cluster-{telemetry.txt,heatmap.svg,timeline.svg,packetflow.svg} into this directory")
		telem    = flag.String("telemetry", "", "trace the run and write the telemetry v1 text export to this file")
	)
	flag.Parse()
	if err := run(os.Stdout, *n, *k, *payload, *loss, *fanout, *shards, *mode, *tp, *seed,
		*interval, *timeout, *delay, *reorder, *buffer, *maxTicks, *churn, *adv, *mutate, *trace, *telem); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, n, k, payload int, loss float64, fanout, shards int, modeName, tp string, seed int64,
	interval, timeout, delay time.Duration, reorder float64, buffer, maxTicks int, churnSpec, advSpec, mutateSpec, traceDir, traceFile string) error {
	if err := cliutil.ValidateGossip(n, k, payload, fanout, loss, reorder); err != nil {
		return err
	}
	if err := cliutil.ValidateShards(shards, n); err != nil {
		return err
	}
	if err := cliutil.ValidateBuffer(buffer); err != nil {
		return err
	}
	var mode cluster.Mode
	switch modeName {
	case "coded":
		mode = cluster.Coded
	case "forward":
		mode = cluster.Forward
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}
	lockstep, err := cliutil.ParseTransport(tp)
	if err != nil {
		return err
	}
	if shards > 1 && !lockstep {
		return fmt.Errorf("-shards needs the deterministic driver (the async runtime is already concurrent); use -transport lockstep")
	}
	sched, err := cliutil.ParseChurnFlag(churnSpec)
	if err != nil {
		return err
	}
	maxN := n + sched.Joins()
	if buffer == 0 {
		buffer = cluster.DefaultInboxBuffer(maxN, fanout+1)
	}
	tr, err := cliutil.BuildTransport(maxN, buffer, lockstep, delay, reorder, loss, seed)
	if err != nil {
		return err
	}

	// The recorder must exist before the adversarial wrap: the adaptive
	// adversary reads its rank scoreboard.
	var rec *telemetry.Recorder
	if traceDir != "" || traceFile != "" || cliutil.AdversaryNeedsTelemetry(advSpec) {
		rec = telemetry.New(telemetry.Config{Nodes: maxN})
		rec.SetMeta("driver", "cluster")
		rec.SetMeta("mode", modeName)
		rec.SetMeta("n", fmt.Sprint(n))
		rec.SetMeta("k", fmt.Sprint(k))
		rec.SetMeta("loss", fmt.Sprint(loss))
		rec.SetMeta("transport", tp)
		rec.SetMeta("seed", fmt.Sprint(seed))
	}
	advInterval := time.Duration(0)
	if !lockstep {
		advInterval = interval
	}
	tr, err = cliutil.WrapAdversarial(tr, advSpec, mutateSpec, maxN, seed, advInterval, rec)
	if err != nil {
		return err
	}

	toks := token.RandomSet(k, payload, rand.New(rand.NewSource(seed)))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := cluster.Run(ctx, cluster.Config{
		N: n, Fanout: fanout, Mode: mode, Seed: seed, Transport: tr,
		Interval: interval, Timeout: timeout, Lockstep: lockstep, Shards: shards,
		MaxTicks: maxTicks, Churn: sched, Telemetry: rec,
	}, toks)
	if err != nil {
		return err
	}
	if err := cliutil.ExportTelemetry(rec, traceDir, traceFile, "cluster", false); err != nil {
		return err
	}

	t := &sim.Table{
		Caption: fmt.Sprintf("cluster: %s gossip, n=%d k=%d payload=%d bits, loss=%.2f transport=%s seed=%d",
			mode, n, k, payload, loss, tp, seed),
		Header: []string{"metric", "value"},
	}
	t.AddRow("completed", fmt.Sprintf("%v", res.Completed))
	if lockstep {
		t.AddRow("ticks", sim.I(res.Ticks))
		if s := sim.Summarize(res.DoneTicks()); s.N > 0 {
			t.AddRow("ticks-to-rank-k min/mean/max", fmt.Sprintf("%s / %s / %s", sim.F(s.Min), sim.F(s.Mean), sim.F(s.Max)))
		}
	} else {
		t.AddRow("elapsed", res.Elapsed.Round(time.Millisecond).String())
		if s := sim.Summarize(res.DoneTimes()); s.N > 0 {
			t.AddRow("time-to-rank-k min/mean/max", fmt.Sprintf("%.1fms / %.1fms / %.1fms", 1e3*s.Min, 1e3*s.Mean, 1e3*s.Max))
		}
	}
	t.AddRow("packets sent", sim.I(int(res.PacketsOut)))
	t.AddRow("packets received", sim.I(int(res.PacketsIn)))
	t.AddRow("packets dropped", sim.I(int(res.Dropped)))
	t.AddRow("protocol bits sent", sim.I(int(res.BitsOut)))
	if sched != nil {
		spawned, hellos := 0, int64(0)
		for _, m := range res.Nodes {
			if m.Spawned {
				spawned++
			}
			hellos += m.HellosOut
		}
		t.AddRow("churn schedule", sched.String())
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
		t.AddRow("packets per done-node-token", sim.F(float64(res.PacketsOut)/float64(done*k)))
	}
	if res.Completed {
		t.AddNote("all %d live nodes reached rank %d; decoded tokens verified against the originals", res.FinalLive, k)
	} else {
		t.AddNote("run did NOT complete (timeout/tick cap); counters cover the partial run, per-node summaries cover only nodes that finished")
	}
	fmt.Fprint(w, t.String())
	if !res.Completed {
		return fmt.Errorf("dissemination incomplete")
	}
	return nil
}
