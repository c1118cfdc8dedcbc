// Package telemetry gives the gossip runtimes in-flight visibility:
// a per-node, fixed-capacity ring buffer of protocol events (packet
// send/recv/drop, span inserts with their innovative-or-not verdict,
// generation retirement, frontier moves, membership churn) plus a
// tick-bucketed time series of each node's protocol state (rank,
// delivery watermark, inbox depth, live-view size) and, for the
// socket runtime, the udpnet datagram accounting buckets. Every tick a
// line carries is the run's one clock's: the lockstep tick, or whole
// emission intervals since the run started under the wall-clock
// drivers, whoever recorded the line (cluster.TickObserver states the
// contract), so one export has one time base.
//
// The package is built around one invariant: a nil *Recorder is the
// disabled state, and every recording method is a nil-receiver no-op
// that performs no allocation and draws no randomness. Instrumentation
// points in internal/cluster and internal/stream therefore call the
// methods unconditionally; with telemetry off the cost is one
// predictable branch per call site, which keeps the lockstep golden
// transcripts and the zero-allocation hot-path tests unmoved whether
// the recorder is attached or not (recording only observes —
// it never touches the protocol's RNG streams or emission order).
//
// Per-node storage is owned by whatever goroutine drives the node (the
// lockstep thread, a node goroutine, the cmd/node process body), the
// same ownership rule the buffer rings follow, so recording needs no
// locks. Ring and sample storage is allocated lazily on a node's first
// event, so a Recorder sized for a 1024-process id space costs memory
// only for the nodes this process actually runs. Cross-thread readers
// (the expvar surface in cmd/node) see only the atomic aggregate
// counters, never the rings.
//
// # Quick start
//
// The CLIs expose recording behind two flags; no code is needed to go
// from a run to pictures. Trace a lossy lockstep dissemination and
// render its rank-progression heatmap (node × time, light→dark as
// each node's span fills), frontier timeline and packet-flow summary:
//
//	go run ./cmd/cluster -transport lockstep -loss 0.25 -trace out/
//	open out/cluster-heatmap.svg     # rank heatmap
//	open out/cluster-timeline.svg    # per-node rank curves
//	cat  out/cluster-telemetry.txt   # the v1 text export
//
// cmd/stream writes the same set under the stream- prefix (its
// timeline plots delivery watermarks, the paper's frontier), and
// cmd/node traces one process's ring per process, under the node<id>-
// prefix; -debug-addr serves the live aggregate counters over expvar
// alongside pprof.
//
// Programmatic use is the same shape the CLIs wrap:
//
//	rec := telemetry.New(telemetry.Config{Nodes: n})
//	res, err := cluster.Run(ctx, cluster.Config{..., Telemetry: rec}, toks)
//	err = rec.WriteFiles("out", "cluster", false)
//
// See DESIGN.md ("Runtime telemetry") for the event taxonomy, the
// ownership rules and the export schema.
package telemetry
