package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
)

func validOptions() options {
	return options{
		addr: "127.0.0.1:0", id: 0, mode: "cluster",
		window: 2, generations: 3, linger: 500 * time.Millisecond,
		GossipFlags: cliutil.GossipFlags{
			N: 2, K: 4, Payload: 32, Fanout: 1, Seed: 1,
			Interval: time.Millisecond, Timeout: 20 * time.Second,
		},
	}
}

// TestRunValidation drives every flag check through the extracted
// process body: each rejection must happen before a socket is bound
// and must name the offending flag.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(o options) options
		want string
	}{
		{"bad mode", func(o options) options { o.mode = "both"; return o }, "-mode"},
		{"empty addr", func(o options) options { o.addr = ""; return o }, "-addr"},
		{"addr without port", func(o options) options { o.addr = "127.0.0.1"; return o }, "-addr"},
		{"bad bootstrap", func(o options) options { o.bootstrap = "nonsense"; return o }, "-bootstrap"},
		{"negative id", func(o options) options { o.id = -1; return o }, "-id"},
		{"id at n", func(o options) options { o.id = 2; return o }, "-id"},
		{"single node", func(o options) options { o.N = 1; o.id = 0; return o }, "-n"},
		{"zero k", func(o options) options { o.K = 0; return o }, "-k"},
		{"zero payload", func(o options) options { o.Payload = 0; return o }, "-payload"},
		{"fanout at n", func(o options) options { o.Fanout = 2; return o }, "-fanout"},
		{"loss out of range", func(o options) options { o.Loss = 1; return o }, "-loss"},
		{"reorder out of range", func(o options) options { o.Reorder = -0.1; return o }, "-reorder"},
	}
	for _, tc := range cases {
		err := run(context.Background(), io.Discard, tc.mut(validOptions()))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestRunRejectsNegativeDelay pins that the middleware knobs are
// validated even though they live behind WrapHostile: a negative
// -delay must fail the run, not silently mean "no delay".
func TestRunRejectsNegativeDelay(t *testing.T) {
	o := validOptions()
	o.Delay = -time.Millisecond
	if err := run(context.Background(), io.Discard, o); err == nil || !strings.Contains(err.Error(), "-delay") {
		t.Errorf("negative delay: err %v does not name -delay", err)
	}
}

// freeAddrs reserves n distinct loopback UDP ports by binding and
// releasing them, so the two-process smoke tests can exchange a known
// bootstrap address.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := range addrs {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs
}

// smoke runs a full 2-process-shaped cluster (two run() bodies, each
// owning its own socket) in the given mode and returns the per-node
// outputs and metric files.
func smoke(t *testing.T, mode string) (outs []bytes.Buffer, metrics []string) {
	t.Helper()
	return launch(t, 2, func(_ int, o *options) { o.mode = mode })
}

// launch runs n run() bodies as one cluster — node 0 the bootstrap
// peer, tune adjusting each node's options — and fails the test unless
// all of them succeed.
func launch(t *testing.T, n int, tune func(id int, o *options)) (outs []bytes.Buffer, metrics []string) {
	t.Helper()
	addrs := freeAddrs(t, n)
	dir := t.TempDir()
	outs = make([]bytes.Buffer, n)
	metrics = make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		metrics[id] = filepath.Join(dir, fmt.Sprintf("node%d.metrics", id))
		o := validOptions()
		o.N, o.id, o.addr, o.metrics = n, id, addrs[id], metrics[id]
		if id > 0 {
			o.bootstrap = addrs[0]
		}
		tune(id, &o)
		wg.Add(1)
		go func(id int, o options) {
			defer wg.Done()
			errs[id] = run(context.Background(), &outs[id], o)
		}(id, o)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v\n%s", id, err, outs[id].String())
		}
	}
	return outs, metrics
}

// TestTwoNodeClusterSmoke is the end-to-end cmd/node path: two process
// bodies bootstrap over loopback sockets, disseminate, verify, and
// write their metric files.
func TestTwoNodeClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	outs, metrics := smoke(t, "cluster")
	for id := range outs {
		got := outs[id].String()
		if !strings.Contains(got, "LISTEN id=") {
			t.Errorf("node %d printed no LISTEN line:\n%s", id, got)
		}
		if !strings.Contains(got, "DONE id=") || !strings.Contains(got, "ok=true") {
			t.Errorf("node %d printed no successful DONE line:\n%s", id, got)
		}
		raw, err := os.ReadFile(metrics[id])
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"done=true", "udp_datagrams=", "packets_out="} {
			if !strings.Contains(string(raw), key) {
				t.Errorf("node %d metrics file lacks %q:\n%s", id, key, raw)
			}
		}
	}
}

// TestTwoNodeStreamSmoke drives -mode stream through the same path.
func TestTwoNodeStreamSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	outs, _ := smoke(t, "stream")
	for id := range outs {
		if got := outs[id].String(); !strings.Contains(got, "ok=true") || !strings.Contains(got, "delivered=3") {
			t.Errorf("node %d did not deliver the full stream:\n%s", id, got)
		}
	}
}

// TestMetricsFlushOnCancel pins satellite behavior: a node killed
// mid-run (context cancellation stands in for SIGINT/SIGTERM, which
// main routes through the same NotifyContext) must still leave its
// metrics file with the socket counters, plus its telemetry export.
func TestMetricsFlushOnCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	dir := t.TempDir()
	o := validOptions()
	o.metrics = filepath.Join(dir, "node0.metrics")
	o.Telemetry = filepath.Join(dir, "node0.telemetry")
	// No peer ever answers: the node blocks (in bootstrap or the run
	// loop) until killed.
	o.Timeout = 20 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(300*time.Millisecond, cancel)
	err := run(ctx, io.Discard, o)
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	raw, rerr := os.ReadFile(o.metrics)
	if rerr != nil {
		t.Fatalf("canceled run left no metrics file: %v", rerr)
	}
	for _, key := range []string{"id=0\n", "udp_datagrams="} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("flushed metrics lack %q:\n%s", key, raw)
		}
	}
	if tel, rerr := os.ReadFile(o.Telemetry); rerr != nil {
		t.Errorf("canceled run left no telemetry export: %v", rerr)
	} else if !strings.HasPrefix(string(tel), "telemetry v1\n") {
		t.Errorf("telemetry export lacks the v1 header:\n%.80s", tel)
	}
}

// TestMetricsFlushOnBootstrapFailure covers the crash path before the
// gossip loop even starts: a node whose bootstrap peer never exists
// must error out AND still flush the socket counters it did record.
func TestMetricsFlushOnBootstrapFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	addrs := freeAddrs(t, 1)
	dir := t.TempDir()
	o := validOptions()
	o.bootstrap = addrs[0] // reserved then released: nobody listens
	o.id = 1
	o.metrics = filepath.Join(dir, "node1.metrics")
	o.Timeout = 400 * time.Millisecond
	err := run(context.Background(), io.Discard, o)
	if err == nil || !strings.Contains(err.Error(), "bootstrap") {
		t.Fatalf("bootstrap against a dead peer returned %v", err)
	}
	raw, rerr := os.ReadFile(o.metrics)
	if rerr != nil {
		t.Fatalf("failed bootstrap left no metrics file: %v", rerr)
	}
	if !strings.Contains(string(raw), "udp_datagrams=") {
		t.Errorf("flushed metrics lack socket counters:\n%s", raw)
	}
}

// TestDebugEndpointsServe pins the -debug-addr surface: the process
// prints the bound DEBUG address and serves both the pprof index and
// the expvar JSON (including the published udpnet and telemetry vars)
// while the run is live; run() being driven twice must not re-panic
// expvar.Publish.
func TestDebugEndpointsServe(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	for round := 0; round < 2; round++ {
		addrs := freeAddrs(t, 2)
		dir := t.TempDir()
		var out lockedBuffer
		o := validOptions()
		o.addr = addrs[0]
		o.debugAddr = "127.0.0.1:0"
		o.Trace = dir
		o.metrics = filepath.Join(dir, "node0.metrics")
		o.Timeout = 20 * time.Second

		debugUp := make(chan string, 1)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- run(ctx, &out, o) }()
		go func() {
			for i := 0; i < 100; i++ {
				if line := out.String(); strings.Contains(line, "DEBUG id=0 addr=") {
					f := strings.Fields(line[strings.Index(line, "DEBUG"):])
					debugUp <- strings.TrimPrefix(f[2], "addr=")
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			debugUp <- ""
		}()
		addr := <-debugUp
		if addr == "" {
			cancel()
			t.Fatalf("round %d: no DEBUG line:\n%s", round, out.String())
		}
		for path, want := range map[string]string{
			"/debug/pprof/": "goroutine",
			"/debug/vars":   "udpnet",
		} {
			body, err := httpGet("http://" + addr + path)
			if err != nil {
				t.Fatalf("round %d: GET %s: %v", round, path, err)
			}
			if !strings.Contains(body, want) {
				t.Errorf("round %d: %s response lacks %q:\n%.200s", round, path, want, body)
			}
		}
		if body, err := httpGet("http://" + addr + "/debug/vars"); err != nil {
			t.Fatal(err)
		} else if !strings.Contains(body, "telemetry") {
			t.Errorf("round %d: expvar lacks the telemetry var:\n%.200s", round, body)
		}
		cancel()
		if err := <-done; err == nil {
			t.Fatalf("round %d: canceled run reported success", round)
		}
		// The traced, canceled run still rendered its artifact set.
		if _, err := os.Stat(filepath.Join(dir, "node0-heatmap.svg")); err != nil {
			t.Errorf("round %d: traced run left no heatmap: %v", round, err)
		}
	}
}

// lockedBuffer lets the test poll run()'s output while run is still
// writing it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// exportTicks reads a telemetry v1 export into the tick range of every
// line family it holds: "s" (samples), "net" (the socket series) and
// each event kind.
func exportTicks(t *testing.T, doc string) map[string][2]int64 {
	t.Helper()
	out := map[string][2]int64{}
	for _, line := range strings.Split(doc, "\n") {
		f := strings.Fields(line)
		var family, tick string
		switch {
		case len(f) > 3 && f[0] == "e":
			family, tick = f[3], f[2]
		case len(f) > 2 && f[0] == "s":
			family, tick = "s", f[2]
		case len(f) > 1 && f[0] == "net":
			family, tick = "net", f[1]
		default:
			continue
		}
		v, err := strconv.ParseInt(tick, 10, 64)
		if err != nil {
			t.Fatalf("export line %q: %v", line, err)
		}
		r, seen := out[family]
		if !seen {
			r = [2]int64{v, v}
		}
		out[family] = [2]int64{min(r[0], v), max(r[1], v)}
	}
	return out
}

// TestTelemetryOneTimeBase: whoever stamps a telemetry line — a node, a
// hostile middleware, cmd/node's socket sampler — stamps it with the
// run's one clock, ticks of -interval since the run started, under the
// async driver and over real sockets under RunSingle alike. So every
// family of an export lies in [0, elapsed/interval + 1], and the
// middlewares' stamps move: every driver ticks the stack, not only the
// lockstep one.
func TestTelemetryOneTimeBase(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	const interval = 2 * time.Millisecond // not 1ms: a millisecond stamp must not pass for a tick
	check := func(t *testing.T, file string, elapsed time.Duration, families ...string) {
		t.Helper()
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ticks, last := exportTicks(t, string(raw)), int64(elapsed/interval)+1
		for family, r := range ticks {
			if r[0] < 0 || r[1] > last {
				t.Errorf("%s lines span ticks %d…%d of a run that lasted %d", family, r[0], r[1], last)
			}
		}
		for _, family := range families {
			if r, ok := ticks[family]; !ok || r[1] == 0 {
				t.Errorf("%s lines span ticks %v (present %v): want stamps that move with the run", family, r, ok)
			}
		}
	}

	t.Run("async", func(t *testing.T) {
		g := validOptions().GossipFlags
		g.N, g.K, g.Fanout, g.Interval, g.Transport, g.Shards = 8, 32, 2, interval, "chan", 1
		g.Mutate, g.Adversary, g.Telemetry = "dup:0.2", "random", filepath.Join(t.TempDir(), "async.telemetry")
		cfg, err := g.Open(nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := cluster.Run(context.Background(), cfg, g.Tokens())
		elapsed := time.Since(start)
		if err != nil || !res.Completed {
			t.Fatalf("completed=%v, err %v", res.Completed, err)
		}
		if err := g.Export(cfg.Telemetry, "", false); err != nil {
			t.Fatal(err)
		}
		check(t, g.Telemetry, elapsed, "s", "send", "recv", "mutate", "adv_cut")
	})

	t.Run("node", func(t *testing.T) {
		dir := t.TempDir()
		file := func(id int) string { return filepath.Join(dir, fmt.Sprintf("node%d.telemetry", id)) }
		start := time.Now()
		launch(t, 3, func(id int, o *options) {
			o.K, o.Interval, o.Mutate, o.Adversary, o.Telemetry = 16, interval, "dup:0.2", "rotating-path", file(id)
		})
		elapsed := time.Since(start)
		for id := 0; id < 3; id++ {
			check(t, file(id), elapsed, "s", "send", "recv", "mutate", "adv_cut", "net")
		}
	})
}

// TestFlagSurface: cmd/node binds exactly these flags, at these
// defaults, through the shared cliutil block and its own; the
// in-process flags of cmd/cluster and cmd/stream are not among them.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	new(options).bind(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	const want = "addr=127.0.0.1:0 adversary= bootstrap= cpuprofile= debug-addr= delay=0s fanout=2 generations=8 id=0 interval=2ms k=32 linger=2s loss=0 memprofile= metrics= mode=cluster mutate= n=2 payload=128 reorder=0 seed=1 telemetry= timeout=1m0s trace= window=4"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flags\n got %s\nwant %s", g, want)
	}
	for _, name := range []string{"shards", "transport", "maxticks", "churn"} {
		if fs.Lookup(name) != nil {
			t.Errorf("cmd/node binds the in-process flag -%s", name)
		}
	}
}
