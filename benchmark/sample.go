package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/udpnet"
)

// Child modes: what one re-executed process does with its single Run
// call.
const (
	modeRun     = "run"     // complete, verified dissemination, untraced
	modeSetup   = "setup"   // same call under an already-cancelled context
	modeTrace   = "trace"   // complete run behind the benchmark's decorators
	modeKernels = "kernels" // no Run call: layer kernels timed in isolation
)

// sample is one child's report: the line it prints and the parent
// parses, plus the process accounting the parent adds from rusage.
type sample struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"`
	// Slot is the index of the sample's sub-seed within its set (parent
	// bookkeeping; samples sharing a slot share every input).
	Slot int `json:"slot"`
	// Fail is empty when the run returned no error, completed, and
	// passed the benchmark's own output check.
	Fail string `json:"fail,omitempty"`

	// WallS is the wall clock around transport construction plus the
	// Run call; LoopS is Result.Elapsed (the driver loop alone).
	WallS float64 `json:"wall_s"`
	LoopS float64 `json:"loop_s"`

	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	HeapHighWater uint64  `json:"heap_highwater"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCPauseMs     float64 `json:"gc_pause_ms"`

	Ticks      int   `json:"ticks"`
	Live       int   `json:"live"`
	NodeTokens int64 `json:"node_tokens"` // live nodes × K × generations, as delivered
	PacketsOut int64 `json:"packets_out"`
	PacketsIn  int64 `json:"packets_in"`
	BitsOut    int64 `json:"bits_out"`
	Dropped    int64 `json:"dropped"`
	HellosOut  int64 `json:"hellos_out"`
	AcksOut    int64 `json:"acks_out"`
	AcksIn     int64 `json:"acks_in"`
	Innovative int64 `json:"innovative"`
	Stale      int64 `json:"stale"`
	// Transcript hashes every per-node counter; on lockstep workloads
	// it is a pure function of the seed at any shard count.
	Transcript string `json:"transcript"`

	MaxSpanBytes  int `json:"max_span_bytes,omitempty"`
	MaxActiveGens int `json:"max_active_gens,omitempty"`

	Trace   *traceData         `json:"trace,omitempty"`
	Kernels map[string]float64 `json:"kernels,omitempty"`

	PeakRSSMiB float64 `json:"peak_rss_mib"`

	// Filled by the parent from ProcessState.SysUsage.
	UserS       float64 `json:"user_s"`
	SysS        float64 `json:"sys_s"`
	MinorFaults int64   `json:"minor_faults"`
	Outlier     bool    `json:"outlier,omitempty"`
	// SpeedWall and SpeedCPU are how many times slower than the nominal
	// machine the host was around this sample (see calibrator); the
	// parent fills them in, and set.speed averages them over the set.
	SpeedWall float64 `json:"speed_wall"`
	SpeedCPU  float64 `json:"speed_cpu"`
}

// traceData is what the traced pass counts and times in situ, through
// decorators on the program's public seams.
type traceData struct {
	Sends         int64            `json:"sends"`
	Refused       int64            `json:"refused"`
	SendBusyS     float64          `json:"send_busy_s"`
	TicksObserved int64            `json:"ticks_observed"`
	SourceCalls   int64            `json:"source_calls"`
	SourceBusyS   float64          `json:"source_busy_s"`
	DeliverCalls  int64            `json:"deliver_calls"`
	Telemetry     map[string]int64 `json:"telemetry"`
	UDP           *udpnet.Stats    `json:"udp,omitempty"`
}

// timedTransport is the benchmark's cluster.Transport decorator: it
// counts and times Send and forwards everything else untouched,
// including the lockstep tick clock tick-aware middleware depends on.
type timedTransport struct {
	inner          cluster.Transport
	sends, refused atomic.Int64
	busyNs         atomic.Int64
	ticks          atomic.Int64
}

func (t *timedTransport) Send(from, to int, pkt []byte) bool {
	start := time.Now()
	ok := t.inner.Send(from, to, pkt)
	t.busyNs.Add(int64(time.Since(start)))
	t.sends.Add(1)
	if !ok {
		t.refused.Add(1)
	}
	return ok
}

func (t *timedTransport) Recv(id int) <-chan []byte { return t.inner.Recv(id) }
func (t *timedTransport) Close()                    { t.inner.Close() }

func (t *timedTransport) ObserveTick(tick int64) {
	t.ticks.Add(1)
	cluster.ObserveTick(t.inner, tick)
}

// timedSource is the stream.Source decorator of the traced pass.
type timedSource struct {
	inner  stream.Source
	calls  atomic.Int64
	busyNs atomic.Int64
}

func (s *timedSource) Generation(g int) []token.Token {
	start := time.Now()
	out := s.inner.Generation(g)
	s.busyNs.Add(int64(time.Since(start)))
	s.calls.Add(1)
	return out
}

// streamCheck is the benchmark's own output check for stream samples:
// a Deliver callback that requires, per node, generations strictly in
// order and every token equal to the benchmark's private copy of the
// seeded source. Deliver runs concurrently for distinct nodes (async
// and sharded drivers), never for one node, so per-node slots need no
// lock; the first failure does.
type streamCheck struct {
	ref   stream.Source
	next  []int
	calls atomic.Int64
	mu    sync.Mutex
	fail  string
}

func newStreamCheck(w workload, seed int64) *streamCheck {
	return &streamCheck{ref: stream.NewSeededSource(w.K, w.D, seed), next: make([]int, w.maxN())}
}

func (c *streamCheck) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail == "" {
		c.fail = fmt.Sprintf(format, args...)
	}
}

func (c *streamCheck) deliver(node, gen int, toks []token.Token) {
	c.calls.Add(1)
	if gen != c.next[node] {
		c.failf("node %d delivered generation %d, want %d", node, gen, c.next[node])
		return
	}
	c.next[node]++
	want := c.ref.Generation(gen)
	if len(toks) != len(want) {
		c.failf("node %d generation %d: %d tokens, want %d", node, gen, len(toks), len(want))
		return
	}
	for j := range want {
		if !toks[j].Equal(want[j]) {
			c.failf("node %d generation %d token %d differs from the source", node, gen, j)
			return
		}
	}
}

// probes are the traced pass's decorators; the zero value (untraced)
// decorates nothing and hands the program exactly what the workload
// specifies.
type probes struct {
	on           bool
	tt           *timedTransport
	ts           *timedSource
	rec          *telemetry.Recorder
	mesh         *udpnet.Mesh
	deliverCalls int64 // stream Deliver invocations, from the output check
}

// traceEventCap is the traced pass's per-node event ring: small, because
// the pass reads the per-kind totals from Counters(), not the events.
const traceEventCap = 16

func newProbes(w workload, mode string) *probes {
	p := &probes{on: mode == modeTrace}
	if p.on {
		p.rec = telemetry.New(telemetry.Config{Nodes: w.maxN(), EventCap: traceEventCap, MaxSamples: 1})
	}
	return p
}

// transport builds the workload's transport, decorated when tracing.
func (p *probes) transport(w workload, seed int64) (cluster.Transport, error) {
	tr, err := w.transport(seed, p.on)
	if err != nil {
		return nil, err
	}
	p.mesh, _ = tr.(*udpnet.Mesh)
	if p.on {
		p.tt = &timedTransport{inner: tr}
		tr = p.tt
	}
	return tr, nil
}

// source returns the stream source to configure: nil (the library
// default) untraced, the timed decorator over the same default traced.
func (p *probes) source(w workload, seed int64) stream.Source {
	if !p.on {
		return nil
	}
	p.ts = &timedSource{inner: stream.NewSeededSource(w.K, w.D, seed)}
	return p.ts
}

func (p *probes) data() *traceData {
	if !p.on || p.tt == nil {
		return nil
	}
	d := &traceData{
		Sends: p.tt.sends.Load(), Refused: p.tt.refused.Load(),
		SendBusyS:     time.Duration(p.tt.busyNs.Load()).Seconds(),
		TicksObserved: p.tt.ticks.Load(),
		DeliverCalls:  p.deliverCalls,
		Telemetry:     p.rec.Counters(),
	}
	if p.ts != nil {
		d.SourceCalls = p.ts.calls.Load()
		d.SourceBusyS = time.Duration(p.ts.busyNs.Load()).Seconds()
	}
	if p.mesh != nil {
		st := p.mesh.Stats()
		d.UDP = &st
	}
	return d
}

// measure runs fn — transport construction plus the one Run call —
// between a forced GC and a second MemStats read, and records wall
// time and the allocation deltas. It is what sim.Measure does plus the
// GC cycle and pause counters, kept here so that no change to the
// program can move how the benchmark measures.
func (s *sample) measure(fn func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	s.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	s.Allocs = after.Mallocs - before.Mallocs
	s.AllocBytes = after.TotalAlloc - before.TotalAlloc
	s.HeapHighWater = after.HeapAlloc
	s.GCCycles = after.NumGC - before.NumGC
	s.GCPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	s.PeakRSSMiB = peakRSSMiB()
	return err
}

// peakRSSMiB is the process's resident high-water mark, read from the
// kernel's own account of this address space. ru_maxrss counts the same
// pages but starts a child at its parent's high-water mark, so it cannot
// read below the parent's own size.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, _ := strings.Cut(string(status), "VmHWM:")
	var kib float64
	fmt.Sscanf(rest, "%f", &kib) // a missing field leaves 0, which the checks reject
	return kib / 1024
}

// takeSample builds the workload's inputs from the seed, makes exactly
// one Run call (none in kernels mode), checks the outputs and returns
// the report. A failed check is recorded in Fail, never dropped.
func takeSample(w workload, seed int64, mode string, kernelBudget time.Duration) sample {
	s := sample{Workload: w.Name, Seed: seed, Mode: mode}
	if mode == modeKernels {
		kern, err := timeKernels(w, seed, kernelBudget)
		if err != nil {
			s.Fail = fmt.Sprintf("kernels: %v", err)
		}
		s.Kernels = kern
		return s
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if mode == modeSetup {
		cancel()
	}
	p := newProbes(w, mode)
	if w.Stream {
		sampleStream(ctx, w, seed, p, &s)
	} else {
		sampleCluster(ctx, w, seed, p, &s)
	}
	s.Trace = p.data()
	return s
}

func sampleCluster(ctx context.Context, w workload, seed int64, p *probes, s *sample) {
	toks := token.RandomSet(w.K, w.D, rand.New(rand.NewSource(seed)))
	var res *cluster.Result
	err := s.measure(func() error {
		tr, err := p.transport(w, seed)
		if err != nil {
			return err
		}
		res, err = cluster.Run(ctx, cluster.Config{
			N: w.N, Fanout: w.Fanout, Mode: cluster.Coded, Seed: seed,
			Transport: tr, Lockstep: true, Shards: w.Shards, MaxTicks: 200000,
			Churn: w.churn(), Telemetry: p.rec,
		}, toks)
		return err
	})
	if err != nil || res == nil {
		s.Fail = fmt.Sprintf("run error: %v", err)
		return
	}
	s.LoopS = res.Elapsed.Seconds()
	s.Ticks = res.Ticks
	s.Live = res.FinalLive
	s.PacketsOut, s.PacketsIn = res.PacketsOut, res.PacketsIn
	s.BitsOut, s.Dropped = res.BitsOut, res.Dropped
	h := fnv.New64a()
	spawned := 0
	for id, m := range res.Nodes {
		s.HellosOut += m.HellosOut
		s.Innovative += m.Innovative
		if m.Spawned {
			spawned++
		}
		if m.Live && m.Done {
			s.NodeTokens += int64(w.K)
		}
		if m.Live && !m.Done && s.Fail == "" && s.Mode != modeSetup {
			s.Fail = fmt.Sprintf("live node %d not done", id)
		}
		hashInts(h, m.PacketsOut, m.PacketsIn, m.HellosOut, m.BitsOut, m.Dropped, m.Innovative, int64(m.DoneTick), int64(m.JoinTick))
	}
	s.Transcript = fmt.Sprintf("%016x", h.Sum64())
	switch {
	case s.Mode == modeSetup:
		s.Fail = checkSetup(res.Completed, res.Ticks, spawned, w.N)
	case !res.Completed:
		s.Fail = fmt.Sprintf("not completed after %d ticks", res.Ticks)
	case res.FinalLive < 1:
		s.Fail = "no live node at the end"
	}
}

func sampleStream(ctx context.Context, w workload, seed int64, p *probes, s *sample) {
	chk := newStreamCheck(w, seed)
	var res *stream.Result
	err := s.measure(func() error {
		tr, err := p.transport(w, seed)
		if err != nil {
			return err
		}
		res, err = stream.Run(ctx, stream.Config{
			N: w.N, K: w.K, PayloadBits: w.D, Window: w.Window, Generations: w.Generations,
			Fanout: w.Fanout, Seed: seed, Source: p.source(w, seed), Transport: tr,
			Deliver: chk.deliver, Lockstep: !w.UDP, Shards: w.Shards, MaxTicks: 500000,
			Timeout: 120 * time.Second, Telemetry: p.rec,
		})
		return err
	})
	if err != nil || res == nil {
		s.Fail = fmt.Sprintf("run error: %v", err)
		return
	}
	p.deliverCalls = chk.calls.Load()
	s.LoopS = res.Elapsed.Seconds()
	s.Ticks = res.Ticks
	s.Live = res.FinalLive
	s.NodeTokens = res.TokensDelivered
	s.PacketsOut, s.PacketsIn = res.PacketsOut, res.PacketsIn
	s.BitsOut, s.Dropped, s.AcksOut = res.BitsOut, res.Dropped, res.AcksOut
	s.MaxSpanBytes = res.MaxSpanBytes
	h := fnv.New64a()
	spawned := 0
	for _, m := range res.Nodes {
		s.HellosOut += m.HellosOut
		s.AcksIn += m.AcksIn
		s.Innovative += m.Innovative
		s.Stale += m.Stale
		if m.Spawned {
			spawned++
		}
		if m.MaxActiveGens > s.MaxActiveGens {
			s.MaxActiveGens = m.MaxActiveGens
		}
		hashInts(h, m.PacketsOut, m.PacketsIn, m.AcksOut, m.AcksIn, m.BitsOut, m.Dropped, m.Innovative, m.Stale, int64(m.Delivered), int64(m.DoneTick))
	}
	s.Transcript = fmt.Sprintf("%016x", h.Sum64())
	want := int64(res.FinalLive) * int64(w.K) * int64(w.Generations)
	switch {
	case s.Mode == modeSetup:
		s.Fail = checkSetup(res.Completed, res.Ticks, spawned, w.N)
	case !res.Completed:
		s.Fail = fmt.Sprintf("not completed after %d ticks", res.Ticks)
	case chk.fail != "":
		s.Fail = chk.fail
	case res.TokensDelivered != want:
		s.Fail = fmt.Sprintf("delivered %d node-tokens, want %d", res.TokensDelivered, want)
	default:
		for node, next := range chk.next[:w.N] {
			if next != w.Generations {
				s.Fail = fmt.Sprintf("node %d saw %d generations, want %d", node, next, w.Generations)
				break
			}
		}
	}
}

// checkSetup guards the setup_s definition: a Run call under a
// cancelled context must have built every initial member and returned
// before its first tick.
func checkSetup(completed bool, ticks, spawned, n int) string {
	switch {
	case completed:
		return "setup-only run completed: the context was not honoured"
	case ticks != 0:
		return fmt.Sprintf("setup-only run executed %d ticks", ticks)
	case spawned != n:
		return fmt.Sprintf("setup-only run spawned %d of %d members", spawned, n)
	}
	return ""
}

func hashInts(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:]) // hash.Hash.Write never returns an error
	}
}
