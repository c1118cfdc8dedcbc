// Command node runs ONE gossip node as its own OS process over a real
// UDP socket — the multi-process counterpart of cmd/cluster and
// cmd/stream, whose runtimes spawn all n nodes as goroutines. A
// cluster is then n of these processes: every process derives the same
// token set (or stream source) from the shared -seed, discovers its
// peers' socket addresses from one -bootstrap peer, gossips until its
// own rank-k decode verifies, and lingers so slower peers can finish.
// scripts/localnet.sh spins up n of them on the loopback and collects
// the per-node metric files; see DESIGN.md ("Socket transport &
// multi-process runtime").
//
// Quick start:
//
//	go run ./cmd/node -id 0 -n 3 -addr 127.0.0.1:9000 &
//	go run ./cmd/node -id 1 -n 3 -addr 127.0.0.1:9001 -bootstrap 127.0.0.1:9000 &
//	go run ./cmd/node -id 2 -n 3 -addr 127.0.0.1:9002 -bootstrap 127.0.0.1:9000
//
// Every process prints a LISTEN line at bind time and a DONE line at
// completion; -metrics writes a key=value file with the node's gossip
// and socket counters. -mode stream runs the windowed streaming
// runtime instead of one-shot dissemination. The -loss/-delay/-reorder
// fault-injection middlewares stack above the socket exactly as they
// do above the in-process transports, so hostile-network experiments
// compose with real packet loss; -adversary and -mutate stack the
// internal/hostile layers on top of those:
//
//	go run ./cmd/node -id 0 -n 3 -addr 127.0.0.1:9000 -mutate "dup:0.05,trunc:0.02"
//	go run ./cmd/node -id 0 -n 3 -addr 127.0.0.1:9000 -adversary rotating-path
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -debug-addr
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

// options carries every flag so tests drive run() without a process.
// The gossip knobs are the shared cliutil.GossipFlags block.
type options struct {
	cliutil.GossipFlags

	addr      string
	bootstrap string
	id        int
	mode      string

	window      int
	generations int

	linger time.Duration

	metrics   string
	debugAddr string
}

// bind binds every flag of the CLI to o on fs.
func (o *options) bind(fs *flag.FlagSet) {
	o.Register(fs, "node", 2, 32)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "UDP address to bind (host:port; port 0 = ephemeral)")
	fs.StringVar(&o.bootstrap, "bootstrap", "", "a peer's UDP address to learn the membership from (empty = this IS the bootstrap node)")
	fs.IntVar(&o.id, "id", 0, "this node's id in [0, n)")
	fs.StringVar(&o.mode, "mode", "cluster", "runtime: cluster (one-shot dissemination) | stream (windowed generations)")
	fs.IntVar(&o.window, "window", 4, "stream: maximum concurrent generations")
	fs.IntVar(&o.generations, "generations", 8, "stream: number of generations")
	fs.DurationVar(&o.linger, "linger", 2*time.Second, "keep gossiping this long after local completion")
	fs.StringVar(&o.metrics, "metrics", "", "write key=value metrics to this file")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /debug/pprof and /debug/vars on this address (host:port; port 0 = ephemeral)")
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	// SIGTERM joins SIGINT so a `kill` (what launchers and CI send)
	// drains through the same cancellation path and still flushes the
	// metrics file.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, o); err != nil {
		fmt.Fprintf(os.Stderr, "node %d: %v\n", o.id, err)
		os.Exit(1)
	}
}

// run is the whole process body behind the flag surface, testable
// without forking: validate, bind, bootstrap, gossip, report.
func run(ctx context.Context, w io.Writer, o options) error {
	streamMode, err := cliutil.ParseMode(o.mode)
	if err != nil {
		return err
	}
	if err := cliutil.ValidateHostPort("-addr", o.addr); err != nil {
		return err
	}
	if o.bootstrap != "" {
		if err := cliutil.ValidateHostPort("-bootstrap", o.bootstrap); err != nil {
			return err
		}
	}
	if err := cliutil.ValidateNodeID(o.id, o.N); err != nil {
		return err
	}
	if err := o.Validate(); err != nil {
		return err
	}
	// A coded packet over the datagram cap is refused on every Send, and
	// the node would wait out -timeout: refuse its shape here.
	coded := rlnc.Coded{K: o.K, Vec: gf.NewBitVec(o.K + token.UIDBits + o.Payload)}
	if size := wire.NewCoded(o.id, 0, coded).WireBytes(); size > udpnet.DefaultMaxPacket {
		return fmt.Errorf("-k %d and -payload %d make a %d-byte coded packet, over the %d-byte datagram cap", o.K, o.Payload, size, udpnet.DefaultMaxPacket)
	}
	if o.Interval <= 0 {
		return fmt.Errorf("-interval must be positive (it is the run's tick), got %v", o.Interval)
	}

	tr, err := udpnet.Dial(udpnet.Config{ID: o.id, Nodes: o.N, Addr: o.addr, Bootstrap: o.bootstrap})
	if err != nil {
		return err
	}
	defer tr.Close()
	fmt.Fprintf(w, "LISTEN id=%d addr=%s\n", o.id, tr.LocalAddr())

	// Lower the flags before bootstrapping so a bad middleware knob
	// fails fast.
	meta := []string{"driver", "node", "id", fmt.Sprint(o.id), "n", fmt.Sprint(o.N),
		"mode", o.mode, "k", fmt.Sprint(o.K), "seed", fmt.Sprint(o.Seed)}
	single := cluster.Single{ID: o.id, Linger: o.linger}
	var oneShot cluster.Config
	var streamed stream.Config
	var rec *telemetry.Recorder
	if streamMode {
		streamed, err = o.OpenStream(tr, o.window, o.generations, meta...)
		rec = streamed.Telemetry
	} else {
		oneShot, err = o.Open(tr, meta...)
		rec = oneShot.Telemetry
	}
	if err != nil {
		return err
	}

	if o.debugAddr != "" {
		ln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return err
		}
		publishDebugVars()
		curTransport.Store(tr)
		curRecorder.Store(rec)
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(w, "DEBUG id=%d addr=%s\n", o.id, ln.Addr())
	}

	// The metrics file and telemetry exports flush on EVERY exit path —
	// signal, timeout, bootstrap failure, verification error — so a
	// killed node still leaves its partial counters for the launcher to
	// aggregate. The deferred flush is the crash path; the success path
	// flushes explicitly so write errors surface as run errors.
	kv := [][2]string{}
	add := func(key string, val any) { kv = append(kv, [2]string{key, fmt.Sprint(val)}) }
	stopSampler := func() {}
	flushed := false
	flush := func() error {
		flushed = true
		stopSampler() // exports must see a quiet recorder
		for i, v := range tr.Stats().Counts() {
			add("udp_"+udpnet.BucketNames[i], v)
		}
		if o.metrics != "" {
			if err := writeMetrics(o.metrics, o.id, kv); err != nil {
				return err
			}
		}
		return o.Export(rec, fmt.Sprintf("node%d", o.id), streamMode)
	}
	defer func() {
		if !flushed {
			flush() // crash path: best-effort, the run's own error wins
		}
	}()

	// Fill the address book before gossiping: joiners pull it from the
	// bootstrap peer; the bootstrap node itself learns each joiner from
	// the pings it answers. The retry period scales with the emission
	// interval (which the launcher scales with n): n-1 joiners hammering
	// one bootstrap peer every 50ms was a measured livelock at n=1024 on
	// one core — the ping storm starved the processes it was probing.
	bootCtx, cancelBoot := context.WithTimeout(ctx, o.Timeout)
	defer cancelBoot()
	if o.bootstrap != "" {
		bootEvery := 10 * o.Interval
		if bootEvery < 50*time.Millisecond {
			bootEvery = 50 * time.Millisecond
		}
		go tr.BootstrapLoop(bootCtx, bootEvery)
	}
	// Wait in slices so a slow bootstrap is visible in the logs: a
	// 1k-process run that stalls with every node silent is
	// undiagnosable; one that stalls printing "known=37/1024" is not.
	for {
		wctx, cancelWait := context.WithTimeout(bootCtx, 5*time.Second)
		err := tr.WaitReady(wctx)
		cancelWait()
		if err == nil {
			break
		}
		if bootCtx.Err() != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
		fmt.Fprintf(w, "BOOT id=%d known=%d/%d\n", o.id, tr.BookSize(), o.N)
	}

	// One sampling loop per process feeds the socket accounting series,
	// stamped in the run's unit of time, ticks of -interval; flush joins
	// it (via stopSampler) so the exports see a quiet recorder.
	if rec != nil {
		start := time.Now()
		sctx, scancel := context.WithCancel(ctx)
		samplerDone := make(chan struct{})
		var stopOnce sync.Once
		stopSampler = func() {
			stopOnce.Do(func() {
				scancel()
				<-samplerDone
			})
		}
		go func() {
			defer close(samplerDone)
			every := 10 * o.Interval
			if every < 10*time.Millisecond {
				every = 10 * time.Millisecond
			}
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-sctx.Done():
					return
				case <-tick.C:
					rec.SampleNet(int64(time.Since(start)/o.Interval), tr.Stats().Counts())
				}
			}
		}()
		defer stopSampler()
	}

	// Both runtimes count into the same shared block; the stream adds
	// its own on top.
	var shared cluster.NodeMetrics
	var sm stream.NodeMetrics
	if err := o.Profile(func() (err error) {
		if streamMode {
			sm, err = stream.RunSingle(ctx, streamed, single)
			shared = sm.NodeMetrics
			return err
		}
		shared, err = cluster.RunSingle(ctx, oneShot, single, o.Tokens())
		return err
	}); err != nil {
		return err
	}
	if streamMode {
		add("delivered", sm.Delivered)
		add("acks_out", sm.AcksOut)
		add("acks_in", sm.AcksIn)
		add("stale", sm.Stale)
		fmt.Fprintf(w, "DONE id=%d ok=%v delivered=%d packets_out=%d\n", o.id, sm.Done, sm.Delivered, sm.PacketsOut)
	} else {
		fmt.Fprintf(w, "DONE id=%d ok=%v innovative=%d packets_out=%d\n", o.id, shared.Done, shared.Innovative, shared.PacketsOut)
	}
	add("done", shared.Done)
	add("done_at_ms", (time.Duration(shared.DoneTick) * o.Interval).Milliseconds())
	add("packets_out", shared.PacketsOut)
	add("packets_in", shared.PacketsIn)
	add("hellos_out", shared.HellosOut)
	add("bits_out", shared.BitsOut)
	add("dropped", shared.Dropped)
	add("innovative", shared.Innovative)
	if err := flush(); err != nil {
		return err
	}
	if !shared.Done {
		return fmt.Errorf("did not complete within %v", o.Timeout)
	}
	return nil
}

// The expvar surface is published once per process (expvar.Publish
// panics on duplicates, and tests drive run() repeatedly); the Funcs
// indirect through atomic holders so each run swaps in its own live
// sources. Only race-safe snapshots are exposed: udpnet.Stats reads
// atomics, Recorder.Counters is the recorder's concurrent surface.
var (
	publishOnce  sync.Once
	curTransport atomic.Pointer[udpnet.Transport]
	curRecorder  atomic.Pointer[telemetry.Recorder]
)

func publishDebugVars() {
	publishOnce.Do(func() {
		expvar.Publish("udpnet", expvar.Func(func() any {
			if tr := curTransport.Load(); tr != nil {
				return tr.Stats()
			}
			return nil
		}))
		expvar.Publish("telemetry", expvar.Func(func() any {
			return curRecorder.Load().Counters() // nil recorder → nil map
		}))
	})
}

// writeMetrics dumps the node's counters as sorted key=value lines —
// greppable, awk-able, and diff-stable for CI artifacts.
func writeMetrics(path string, id int, kv [][2]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "id=%d\n", id)
	sorted := append([][2]string(nil), kv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	for _, e := range sorted {
		fmt.Fprintf(&b, "%s=%s\n", e[0], e[1])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
