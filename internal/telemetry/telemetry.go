package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Kind labels one protocol event. The names are part of the text
// export schema (see WriteText) and must stay stable.
type Kind uint8

const (
	// KindSend is a data packet emission: A=peer, B=generation/epoch,
	// C=protocol bits.
	KindSend Kind = iota
	// KindSendAck is an ack emission (stream): A=peer, B=watermark.
	KindSendAck
	// KindSendHello is a membership announcement: A=peer, B=1 if
	// leaving.
	KindSendHello
	// KindRecv is a data packet receipt: A=sender, B=generation/epoch.
	KindRecv
	// KindRecvAck is an ack receipt (stream): A=sender, B=the sender's
	// watermark.
	KindRecvAck
	// KindRecvHello is a membership announcement receipt: A=sender,
	// B=1 if leaving.
	KindRecvHello
	// KindDrop is a Send the transport refused: A=peer.
	KindDrop
	// KindInsert is a span insert attempt: A=generation/epoch, B=rank
	// after the insert, C=1 if the packet was innovative.
	KindInsert
	// KindDeliver is an in-order generation delivery (stream):
	// A=generation, B=watermark after.
	KindDeliver
	// KindRetire is a generation retiring below the frontier (stream):
	// A=generation.
	KindRetire
	// KindFrontier is a retirement-frontier move (stream): A=new base.
	KindFrontier
	// KindJoin / KindLeave / KindCrash / KindRestart are membership
	// events recorded on the affected node's ring at the tick the
	// driver applied them.
	KindJoin
	KindLeave
	KindCrash
	KindRestart
	// KindSuspect is a local suspicion verdict: the recording node
	// dropped peer A from its retirement frontier for silence.
	KindSuspect
	// KindAdvCut is a Send the adversarial topology layer blocked:
	// recorded on the sender, A=peer. The tick is the adversary's round
	// clock, which under the lockstep drivers equals the driver tick.
	KindAdvCut
	// KindMutate is a hostile-packet mutation applied to an outgoing
	// Send: recorded on the sender, A=peer, B=the mutation op code
	// (hostile.Op).
	KindMutate

	numKinds
)

// kindNames are the stable export names, indexed by Kind.
var kindNames = [numKinds]string{
	"send", "send_ack", "send_hello",
	"recv", "recv_ack", "recv_hello",
	"drop", "insert", "deliver", "retire", "frontier",
	"join", "leave", "crash", "restart", "suspect",
	"adv_cut", "mutate",
}

// String returns the kind's stable export name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one traced protocol event. Tick is the driver's clock:
// lockstep tick numbers under the deterministic drivers, nanosecond
// wall offsets under the async ones. A, B, C are kind-specific (see
// the Kind constants).
type Event struct {
	Tick    int64
	Kind    Kind
	A, B, C int64
}

// Sample is one time-series point of a node's protocol state.
type Sample struct {
	Tick int64
	// Rank is the node's decoding progress: span rank (cluster), or
	// the rank of the generation at the delivery watermark (stream).
	Rank int32
	// Watermark is the node's delivery watermark (stream; zero for
	// cluster runs).
	Watermark int32
	// Inbox is the queued-packet depth of the node's inbox at sample
	// time.
	Inbox int32
	// View is the node's live-view size.
	View int32
}

// netSample is one time-bucketed snapshot of the socket accounting:
// the udpnet datagram buckets, cumulative at sample time, in the order
// udpnet declares them (udpnet.BucketNames — this package sits below
// udpnet and only carries the values).
type netSample struct {
	tick int64
	net  []int64
}

// Config sizes a Recorder.
type Config struct {
	// Nodes is the run's node id space (Config.N plus churn joins).
	Nodes int
	// EventCap is the per-node event ring capacity (default 4096).
	// Once full, the oldest events are overwritten; Dropped counts the
	// overwrites.
	EventCap int
	// MaxSamples caps the per-node time series (default 65536); beyond
	// it new samples are discarded (the series covers the run's start,
	// the ring covers its end).
	MaxSamples int
}

// nodeRec is one node's storage: an overwrite-oldest event ring and an
// append-only sample series, both lazily allocated and owned by the
// goroutine driving the node.
type nodeRec struct {
	ring    []Event
	head    int // next write slot
	n       int // events currently held
	samples []Sample
}

// Recorder collects events and samples for one run. The zero value is
// not usable; construct with New. A nil *Recorder is the disabled
// state: every method below is a nil-receiver no-op.
type Recorder struct {
	cfg  Config
	recs []nodeRec
	meta [][2]string

	// Aggregate counters, safe to read concurrently (the expvar
	// surface); everything else is single-owner per node.
	kindCounts     [numKinds]atomic.Int64
	sampleCount    atomic.Int64
	eventsDropped  atomic.Int64
	samplesDropped atomic.Int64

	netSamples []netSample // owned by the net sampler goroutine
}

// New returns a Recorder for a run over cfg.Nodes node ids.
func New(cfg Config) *Recorder {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.EventCap <= 0 {
		cfg.EventCap = 4096
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 65536
	}
	return &Recorder{cfg: cfg, recs: make([]nodeRec, cfg.Nodes)}
}

// SetMeta records one run parameter for the export header (driver,
// n, k, seed, ...). Pairs export in insertion order.
func (r *Recorder) SetMeta(key, value string) {
	if r == nil {
		return
	}
	r.meta = append(r.meta, [2]string{key, value})
}

// Event appends one event to node's ring, overwriting the oldest once
// the fixed capacity is reached. A nil receiver or out-of-range node
// is a no-op.
func (r *Recorder) Event(node int, tick int64, k Kind, a, b, c int64) {
	if r == nil || node < 0 || node >= len(r.recs) {
		return
	}
	nr := &r.recs[node]
	if nr.ring == nil {
		nr.ring = make([]Event, r.cfg.EventCap)
	}
	nr.ring[nr.head] = Event{Tick: tick, Kind: k, A: a, B: b, C: c}
	nr.head++
	if nr.head == len(nr.ring) {
		nr.head = 0
	}
	if nr.n < len(nr.ring) {
		nr.n++
	} else {
		r.eventsDropped.Add(1)
	}
	r.kindCounts[k].Add(1)
}

// Sample appends one time-series point for node: once per tick under
// the lockstep driver, once per emission interval under the async
// ones.
func (r *Recorder) Sample(node int, tick int64, rank, watermark, inbox, view int) {
	if r == nil || node < 0 || node >= len(r.recs) {
		return
	}
	nr := &r.recs[node]
	if len(nr.samples) >= r.cfg.MaxSamples {
		r.samplesDropped.Add(1)
		return
	}
	if nr.samples == nil {
		nr.samples = make([]Sample, 0, 256)
	}
	nr.samples = append(nr.samples, Sample{
		Tick: tick, Rank: int32(rank), Watermark: int32(watermark),
		Inbox: int32(inbox), View: int32(view),
	})
	r.sampleCount.Add(1)
}

// SampleNet appends one socket accounting snapshot (see netSample),
// keeping net. It is owned by the caller's sampling loop (cmd/node runs
// one); not safe for concurrent SampleNet calls.
func (r *Recorder) SampleNet(tick int64, net []int64) {
	if r == nil {
		return
	}
	r.netSamples = append(r.netSamples, netSample{tick: tick, net: net})
}

// Events returns node's traced events, oldest first. The slice is
// freshly allocated; call after the run (single-owner storage).
func (r *Recorder) Events(node int) []Event {
	if r == nil || node < 0 || node >= len(r.recs) {
		return nil
	}
	nr := &r.recs[node]
	out := make([]Event, 0, nr.n)
	start := nr.head - nr.n
	if start < 0 {
		start += len(nr.ring)
	}
	for i := 0; i < nr.n; i++ {
		out = append(out, nr.ring[(start+i)%len(nr.ring)])
	}
	return out
}

// Samples returns node's time series in recording order. The returned
// slice aliases recorder storage; treat as read-only.
func (r *Recorder) Samples(node int) []Sample {
	if r == nil || node < 0 || node >= len(r.recs) {
		return nil
	}
	return r.recs[node].samples
}

// Counters snapshots the aggregate counters (events recorded per kind,
// samples, ring overwrites, discarded samples) keyed by stable export
// names. Safe to call concurrently with recording — it is the live
// surface behind cmd/node's expvar endpoint. A nil receiver returns
// nil.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64, numKinds+3)
	for k := Kind(0); k < numKinds; k++ {
		if v := r.kindCounts[k].Load(); v != 0 {
			out["events_"+k.String()] = v
		}
	}
	out["samples"] = r.sampleCount.Load()
	out["events_overwritten"] = r.eventsDropped.Load()
	out["samples_discarded"] = r.samplesDropped.Load()
	return out
}
