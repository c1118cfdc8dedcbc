// Package repro is a from-scratch Go reproduction of "Faster Information
// Dissemination in Dynamic Networks via Network Coding" (Haeupler &
// Karger, PODC 2011). The implementation lives under internal/: the
// dynamic network model of Kuhn, Lynch and Oshman (internal/dynnet,
// internal/adversary), hand-rolled finite-field linear algebra
// (internal/gf), random linear network coding and indexed broadcast
// (internal/rlnc), the token-forwarding baselines (internal/forwarding),
// the k-token dissemination algorithms of Section 7 (internal/dissem),
// the T-stable machinery of Section 8 (internal/stable), the
// derandomization results of Section 6 (internal/derand), the counting
// application (internal/count), and the experiment harness
// (internal/sim, internal/exp). The synchronous model has one runner
// and one contract: a phase is a slice of two-method nodes (Send,
// Receive) and a round count, run on a dynnet.Session by dynnet.Run;
// every algorithm is a sequence of phases on the schedule the paper
// gives it (DESIGN.md "Synchronous model").
//
// Beside the synchronous simulator sits an asynchronous execution
// model: internal/wire (binary packet codec, fuzz-tested to round-trip
// exactly), internal/cluster (goroutine-per-node recoding gossip over
// pluggable transports under one fault schedule of loss/delay/reorder/partition,
// plus a deterministic lockstep mode), and internal/stream (pipelined
// multi-generation streaming: an unbounded token stream chunked into
// generations, a sliding window of them gossiped concurrently, acks
// retiring decoded generations so memory stays bounded). Try them with
//
//	go run ./cmd/cluster -n 64 -k 32 -loss 0.2
//	go run ./cmd/cluster -transport lockstep -seed 7
//	go run ./cmd/stream -n 32 -k 16 -generations 16 -loss 0.2
//	go run ./cmd/stream -window 1 -transport lockstep    # sequential baseline
//	go run ./cmd/stream -transport lockstep -loss 0.2 -churn "crash:30:1,join:60:1"
//	go run ./cmd/cluster -transport lockstep -n 100000 -k 32 -shards 8
//
// The -shards flag runs the deterministic lockstep drivers sharded
// across cores (internal/shard): nodes are partitioned into contiguous
// ranges and the per-node phases, emission included, run in parallel.
// Every fault decision is keyed by its sender and the tick mailbox
// delivers by sender, so the transcript is bit-identical to -shards 1
// at any shard count, and one 100k-node run fits CI-class memory. See
// DESIGN.md "Node runtime and drivers" for the phase diagram.
//
// and see experiments E11 (DESIGN.md "Async cluster runtime") for
// coded vs store-and-forward gossip under loss and E12 (DESIGN.md
// "Streaming layer") for what window pipelining buys.
//
// Both gossip runtimes handle dynamic membership: a -churn schedule
// (kind:tick:count grammar — join, leave, crash, restart, rejoin)
// scripts nodes crashing, joining and restarting mid-run. Membership
// views spread via wire.TypeHello announcements, emission samples the
// current view, the stream's retirement frontier drops silent nodes
// instead of deadlocking, and a mid-stream joiner catches up from the
// watermark frontier it learns from gossip. Lockstep churn runs stay
// a pure function of the seed; experiment E13 (DESIGN.md "Dynamic
// membership & churn") measures coding's edge under churn × loss.
//
// The emission→wire→insert hot path is allocation-free in steady
// state: gf.BitMatrix keeps its echelon rows in one contiguous slab,
// rlnc offers CombineInto/RandomCombinationInto writing into
// caller-owned vectors, wire offers AppendTo/UnmarshalInto reusing one
// buffer and one scratch packet per round trip, and the runtimes
// recycle wire buffers through per-node rings (cluster.BufRing). The
// allocating Marshal/Unmarshal/Combine remain as thin wrappers; see
// DESIGN.md "Hot-path memory layout" for the slab layout, the buffer
// ownership rules and the before/after allocation table.
//
// Performance is measured one way: the repository benchmark (its own
// module under benchmark/, described by BENCHMARK.json) writes a JSON
// report, its -compare is the only verdict, and scripts/benchgate.sh —
// this tree against its parent commit — is the only gate. bench_test.go
// regenerates every experiment as a Go benchmark for work in progress.
//
// A run has one description, cluster.Config (stream.Config carries the
// same fields next to the stream's own); every CLI reaches it through
// the one flag block and lowering in internal/cliutil, and
// cluster.Engine is the one place it is checked and defaulted — see
// DESIGN.md "Node runtime and drivers".
//
// cmd/repobench is the performance observatory on top of all this:
// generate mode sweeps one parameter through the deterministic
// drivers — each point the run cmd/cluster or cmd/stream would make
// with the same flags — and records every point as a workload entry of
// a report in the benchmark's schema, keyed by git revision; display
// mode renders pure-Go SVG charts (internal/svgplot) of any
// BENCHMARK.json metric — per-parameter scaling curves with one curve
// per revision, or a per-report history of the benchmark's workloads:
//
//	go run ./cmd/repobench -driver stream -sweep loss=0:0.1:0.4 -n 8 -k 8 -generations 4
//	go run ./cmd/repobench -driver cluster -sweep n=8:8:64 -k 16
//	go run ./cmd/repobench -display sweep -param loss -metric stream.tokens_per_tick -o loss.svg benchdata/*.json
//	go run ./cmd/repobench -display history -metric allocs -o history.svg a.json b.json
//
// See DESIGN.md "Performance observatory" for the datafile, the sweep
// grammar and the gate. See DESIGN.md for the experiment index and
// implementation notes, and CHANGES.md for the per-change measurement
// log.
package repro
