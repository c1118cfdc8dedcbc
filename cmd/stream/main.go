// Command stream disseminates an unbounded token stream — generations
// of k tokens, a sliding window of them in flight at once — across an
// n-node gossip cluster and reports sustained-throughput and memory
// tables. It is the interactive surface of internal/stream, the
// pipelined counterpart of the one-shot cmd/cluster; see DESIGN.md
// ("Streaming layer", "Node runtime and drivers", "Dynamic membership &
// churn") for the architecture, generation/window lifecycle and ack
// wire format.
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
// channels, a tick every -interval of wall time, and reports
// milliseconds (ticks × -interval); "lockstep" runs the deterministic
// single-threaded driver, whose runs are a pure function of -seed and
// report ticks. -delay, -churn and every telemetry stamp count those
// ticks under both.
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
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stream"
)

// options carries every flag so tests drive run() without a process.
type options struct {
	cliutil.GossipFlags
	window, generations int
}

// bind binds every flag of the CLI to o on fs.
func (o *options) bind(fs *flag.FlagSet) {
	o.Register(fs, "stream", 32, 16)
	fs.IntVar(&o.window, "window", 4, "generations gossiped concurrently (1 = sequential)")
	fs.IntVar(&o.generations, "generations", 16, "stream length in generations")
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "stream:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	switch {
	case o.window < 1:
		return fmt.Errorf("-window must be at least 1, got %d", o.window)
	case o.generations < 1:
		return fmt.Errorf("-generations must be at least 1, got %d", o.generations)
	}
	cfg, err := o.OpenStream(nil, o.window, o.generations,
		"driver", "stream", "n", fmt.Sprint(o.N), "k", fmt.Sprint(o.K),
		"window", fmt.Sprint(o.window), "generations", fmt.Sprint(o.generations),
		"loss", fmt.Sprint(o.Loss), "transport", o.Transport, "seed", fmt.Sprint(o.Seed))
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var res *stream.Result
	if err := o.Profile(func() (err error) { res, err = stream.Run(ctx, cfg); return err }); err != nil {
		return err
	}
	if err := o.Export(cfg.Telemetry, "stream", true); err != nil {
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
			liveTokens += int64(m.Delivered) * int64(o.K)
		}
	}
	deliveredPerNode := float64(liveTokens) / float64(liveNodes)
	t := &sim.Table{
		Caption: fmt.Sprintf("stream: n=%d k=%d payload=%d bits, window=%d, %d generations, loss=%.2f transport=%s seed=%d",
			o.N, o.K, o.Payload, o.window, o.generations, o.Loss, o.Transport, o.Seed),
		Header: []string{"metric", "value"},
	}
	t.AddRow("completed", fmt.Sprintf("%v", res.Completed))
	if cfg.Lockstep {
		t.AddRow("ticks", sim.I(res.Ticks))
		if res.Ticks > 0 && deliveredPerNode > 0 {
			t.AddRow("sustained tokens/tick", sim.F(deliveredPerNode/float64(res.Ticks)))
		}
		if s := sim.Summarize(cluster.DoneTicks(res.Nodes)); s.N > 0 {
			t.AddRow("ticks-to-stream-end min/mean/max", fmt.Sprintf("%s / %s / %s", sim.F(s.Min), sim.F(s.Mean), sim.F(s.Max)))
		}
	} else {
		t.AddRow("elapsed", res.Elapsed.Round(time.Millisecond).String())
		if secs := res.Elapsed.Seconds(); secs > 0 && deliveredPerNode > 0 {
			t.AddRow("sustained tokens/sec", sim.F(deliveredPerNode/secs))
		}
		if s := sim.Summarize(cluster.DoneTicks(res.Nodes)); s.N > 0 {
			ms := 1e3 * o.Interval.Seconds() // an async tick is one -interval
			t.AddRow("time-to-stream-end min/mean/max", fmt.Sprintf("%.1fms / %.1fms / %.1fms", ms*s.Min, ms*s.Mean, ms*s.Max))
		}
	}
	t.AddRow("tokens delivered (all nodes)", sim.I(int(res.TokensDelivered)))
	t.AddRow("data packets sent", sim.I(int(res.PacketsOut)))
	t.AddRow("acks sent", sim.I(int(res.AcksOut)))
	t.AddRow("packets dropped", sim.I(int(res.Dropped)))
	t.AddRow("protocol bits sent", sim.I(int(res.BitsOut)))
	t.AddRow("  data bits", sim.I(int(res.BitsOut-res.AckBitsOut-res.HelloBitsOut)))
	t.AddRow("  ack bits", sim.I(int(res.AckBitsOut)))
	t.AddRow("  hello bits", sim.I(int(res.HelloBitsOut)))
	if deliveredPerNode > 0 {
		t.AddRow("bits per delivered token", sim.F(float64(res.BitsOut)/deliveredPerNode))
	}
	t.AddRow("peak span memory per node", fmt.Sprintf("%d B", res.MaxSpanBytes))
	forfeiters, forfeited := 0, 0
	if cfg.Churn != nil {
		t.AddRow("churn schedule", cfg.Churn.String())
		t.AddRow("nodes live at end", sim.I(res.FinalLive))
		for id, m := range res.Nodes {
			if id < o.N && m.StartGen > 0 {
				// A founding node starts at generation 0; a later start is
				// what a restart or a straggler forfeited, not a join.
				t.AddRow(fmt.Sprintf("node %d forfeited, start gen %d", id, m.StartGen),
					fmt.Sprintf("delivered %d of %d generations", m.Delivered, o.generations))
				if m.Live {
					forfeiters++
					forfeited += o.generations - m.Delivered
				}
				continue
			}
			if !m.Spawned || m.StartGen == 0 {
				continue
			}
			joined, caught := fmt.Sprint(m.JoinTick), fmt.Sprintf("%d ticks", m.CaughtUpTick-m.JoinTick)
			if !cfg.Lockstep {
				wall := func(ticks int) time.Duration { return (time.Duration(ticks) * o.Interval).Round(time.Millisecond) }
				joined, caught = wall(m.JoinTick).String(), wall(m.CaughtUpTick-m.JoinTick).String()
			}
			value := "caught up in " + caught
			if m.CaughtUpTick == 0 {
				value = fmt.Sprintf("delivered %d of %d generations", m.Delivered, o.generations)
			}
			t.AddRow(fmt.Sprintf("node %d joined@%s, start gen %d", id, joined, m.StartGen), value)
		}
	}
	switch {
	case res.Completed && forfeiters > 0:
		t.AddNote("all %d live nodes decoded and delivered the stream in order from their start generations; %d founding nodes forfeited %d generations between them; deliveries verified against the source",
			res.FinalLive, forfeiters, forfeited)
	case res.Completed:
		t.AddNote("all %d live nodes decoded and delivered the stream in order; deliveries verified against the source", res.FinalLive)
	default:
		t.AddNote("run did NOT complete (timeout/tick cap); counters cover the partial run, throughput covers only delivered tokens")
	}
	fmt.Fprint(w, t.String())
	if !res.Completed {
		return fmt.Errorf("stream incomplete")
	}
	return nil
}
