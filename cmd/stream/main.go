// Command stream disseminates an unbounded token stream — generations
// of k tokens, a sliding window of them in flight at once — across an
// n-node gossip cluster and reports sustained-throughput and memory
// tables. It is the interactive surface of internal/stream, the
// pipelined counterpart of the one-shot cmd/cluster; see DESIGN.md
// ("Streaming layer", "Dynamic membership & churn") for the
// architecture, generation/window lifecycle and ack wire format.
//
// Quick start:
//
//	go run ./cmd/stream -n 32 -k 16 -generations 16 -loss 0.2   # pipelined lossy streaming
//	go run ./cmd/stream -window 1                               # sequential baseline (no pipelining)
//	go run ./cmd/stream -transport lockstep -seed 7             # deterministic, tick-counted
//	go run ./cmd/stream -n 16 -delay 2ms -reorder 0.3           # hostile-network middlewares
//	go run ./cmd/stream -transport lockstep -loss 0.2 -churn "crash:30:1,join:60:1"
//	                                                            # churn: mid-stream joiner catch-up
//	go run ./cmd/stream -transport lockstep -adversary adaptive -churn "crashfrontier:40:1,restart:80:1"
//	                                                            # adversarial topology + frontier-targeted crashes
//	go run ./cmd/stream -mutate "stale:0.1,xgen:0.05"           # stale-epoch replay + cross-generation reordering
//
// Transports: "chan" (default) runs the concurrent runtime on buffered
// channels with wall-clock metrics; "lockstep" runs the deterministic
// single-threaded driver, whose runs are a pure function of -seed and
// report ticks instead of milliseconds.
//
// Churn: -churn takes a comma-separated kind:tick:count schedule
// (join, leave, crash, restart, rejoin). A mid-stream joiner learns
// the retirement frontier from watermark gossip and delivers from
// there; the table reports its time-to-catch-up.
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
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func main() {
	var (
		n        = flag.Int("n", 32, "number of nodes")
		k        = flag.Int("k", 16, "tokens per generation")
		payload  = flag.Int("payload", 128, "token payload size in bits")
		window   = flag.Int("window", 4, "generations gossiped concurrently (1 = sequential)")
		gens     = flag.Int("generations", 16, "stream length in generations")
		loss     = flag.Float64("loss", 0, "packet loss rate in [0,1)")
		fanout   = flag.Int("fanout", 2, "peers contacted per emission")
		shards   = flag.Int("shards", 1, "lockstep worker shards (bit-identical to serial at any count)")
		tp       = flag.String("transport", "chan", "transport: chan (async) | lockstep (deterministic)")
		seed     = flag.Int64("seed", 1, "random seed (lockstep runs are a pure function of it)")
		interval = flag.Duration("interval", 500*time.Microsecond, "async emission pacing")
		timeout  = flag.Duration("timeout", 30*time.Second, "async wall-clock cap")
		delay    = flag.Duration("delay", 0, "async per-packet latency upper bound (uniform in [delay/10, delay])")
		reorder  = flag.Float64("reorder", 0, "packet reordering rate in [0,1)")
		buffer   = flag.Int("buffer", 0, "per-node inbox buffer (0 = auto)")
		maxTicks = flag.Int("maxticks", 0, "lockstep tick cap (0 = default)")
		churn    = flag.String("churn", "", `membership schedule, e.g. "crash:30:1,join:60:1" (kinds: join|leave|crash|restart|rejoin|crashmax|crashfrontier)`)
		adv      = flag.String("adversary", "", `topology adversary name[:params] (random | rotating-path | static-<topology> | tstable:<T> | tinterval:<T> | adaptive | trace:<file>)`)
		mutate   = flag.String("mutate", "", `hostile-packet mutation spec, e.g. "stale:0.1,xgen:0.05" (ops: dup|stale|trunc|flip|xgen|all)`)
		trace    = flag.String("trace", "", "trace the run and render stream-{telemetry.txt,heatmap.svg,timeline.svg,packetflow.svg} into this directory")
		telem    = flag.String("telemetry", "", "trace the run and write the telemetry v1 text export to this file")
	)
	flag.Parse()
	if err := run(os.Stdout, *n, *k, *payload, *window, *gens, *loss, *fanout, *shards, *tp, *seed,
		*interval, *timeout, *delay, *reorder, *buffer, *maxTicks, *churn, *adv, *mutate, *trace, *telem); err != nil {
		fmt.Fprintln(os.Stderr, "stream:", err)
		os.Exit(1)
	}
}

// validate applies the shared gossip checks plus the stream-only
// window/generations flags.
func validate(n, k, payload, window, gens, fanout, shards, buffer int, loss, reorder float64) error {
	if err := cliutil.ValidateGossip(n, k, payload, fanout, loss, reorder); err != nil {
		return err
	}
	if err := cliutil.ValidateShards(shards, n); err != nil {
		return err
	}
	if err := cliutil.ValidateBuffer(buffer); err != nil {
		return err
	}
	switch {
	case window < 1:
		return fmt.Errorf("-window must be at least 1, got %d", window)
	case gens < 1:
		return fmt.Errorf("-generations must be at least 1, got %d", gens)
	}
	return nil
}

func run(w io.Writer, n, k, payload, window, gens int, loss float64, fanout, shards int, tp string, seed int64,
	interval, timeout, delay time.Duration, reorder float64, buffer, maxTicks int, churnSpec, advSpec, mutateSpec, traceDir, traceFile string) error {
	if err := validate(n, k, payload, window, gens, fanout, shards, buffer, loss, reorder); err != nil {
		return err
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
		buffer = stream.DefaultInboxBuffer(maxN, fanout+1)
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
		rec.SetMeta("driver", "stream")
		rec.SetMeta("n", fmt.Sprint(n))
		rec.SetMeta("k", fmt.Sprint(k))
		rec.SetMeta("window", fmt.Sprint(window))
		rec.SetMeta("generations", fmt.Sprint(gens))
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := stream.Run(ctx, stream.Config{
		N: n, K: k, PayloadBits: payload, Window: window, Generations: gens, Fanout: fanout,
		Seed: seed, Transport: tr, Lockstep: lockstep, Shards: shards, MaxTicks: maxTicks,
		Interval: interval, Timeout: timeout, Churn: sched, Telemetry: rec,
	})
	if err != nil {
		return err
	}
	if err := cliutil.ExportTelemetry(rec, traceDir, traceFile, "stream", true); err != nil {
		return err
	}

	// All throughput figures are computed from the tokens actually
	// delivered by the nodes still live, not the configured stream
	// length: a timed-out run must not report a sustained rate it never
	// sustained, and a churned-out node's deliveries must not inflate
	// the per-node mean (with churn, joiners also legitimately deliver
	// less than the full stream).
	liveNodes := res.FinalLive
	if liveNodes == 0 {
		liveNodes = 1
	}
	var liveTokens int64
	for _, m := range res.Nodes {
		if m.Live {
			liveTokens += int64(m.Delivered) * int64(k)
		}
	}
	deliveredPerNode := float64(liveTokens) / float64(liveNodes)
	t := &sim.Table{
		Caption: fmt.Sprintf("stream: n=%d k=%d payload=%d bits, window=%d, %d generations, loss=%.2f transport=%s seed=%d",
			n, k, payload, window, gens, loss, tp, seed),
		Header: []string{"metric", "value"},
	}
	t.AddRow("completed", fmt.Sprintf("%v", res.Completed))
	if lockstep {
		t.AddRow("ticks", sim.I(res.Ticks))
		if res.Ticks > 0 && deliveredPerNode > 0 {
			t.AddRow("sustained tokens/tick", sim.F(deliveredPerNode/float64(res.Ticks)))
		}
		if s := sim.Summarize(res.DoneTicks()); s.N > 0 {
			t.AddRow("ticks-to-stream-end min/mean/max", fmt.Sprintf("%s / %s / %s", sim.F(s.Min), sim.F(s.Mean), sim.F(s.Max)))
		}
	} else {
		t.AddRow("elapsed", res.Elapsed.Round(time.Millisecond).String())
		if secs := res.Elapsed.Seconds(); secs > 0 && deliveredPerNode > 0 {
			t.AddRow("sustained tokens/sec", sim.F(deliveredPerNode/secs))
		}
		if s := sim.Summarize(res.DoneTimes()); s.N > 0 {
			t.AddRow("time-to-stream-end min/mean/max", fmt.Sprintf("%.1fms / %.1fms / %.1fms", 1e3*s.Min, 1e3*s.Mean, 1e3*s.Max))
		}
	}
	t.AddRow("tokens delivered (all nodes)", sim.I(int(res.TokensDelivered)))
	t.AddRow("data packets sent", sim.I(int(res.PacketsOut)))
	t.AddRow("acks sent", sim.I(int(res.AcksOut)))
	t.AddRow("packets dropped", sim.I(int(res.Dropped)))
	t.AddRow("protocol bits sent", sim.I(int(res.BitsOut)))
	if deliveredPerNode > 0 {
		t.AddRow("bits per delivered token", sim.F(float64(res.BitsOut)/deliveredPerNode))
	}
	t.AddRow("peak span memory per node", fmt.Sprintf("%d B", res.MaxSpanBytes))
	if sched != nil {
		t.AddRow("churn schedule", sched.String())
		t.AddRow("nodes live at end", sim.I(res.FinalLive))
		for id, m := range res.Nodes {
			if !m.Spawned || m.StartGen == 0 {
				continue
			}
			if lockstep && m.CaughtUpTick > 0 {
				t.AddRow(fmt.Sprintf("node %d joined@%d, start gen %d", id, m.JoinTick, m.StartGen),
					fmt.Sprintf("caught up in %d ticks", m.CaughtUpTick-m.JoinTick))
			} else if !lockstep && m.CaughtUpAt > 0 {
				t.AddRow(fmt.Sprintf("node %d joined@%v, start gen %d", id, m.JoinAt.Round(time.Millisecond), m.StartGen),
					fmt.Sprintf("caught up in %v", (m.CaughtUpAt-m.JoinAt).Round(time.Millisecond)))
			}
		}
	}
	if res.Completed {
		t.AddNote("all %d live nodes decoded and delivered the stream in order; deliveries verified against the source", res.FinalLive)
	} else {
		t.AddNote("run did NOT complete (timeout/tick cap); counters cover the partial run, throughput covers only delivered tokens")
	}
	fmt.Fprint(w, t.String())
	if !res.Completed {
		return fmt.Errorf("stream incomplete")
	}
	return nil
}
