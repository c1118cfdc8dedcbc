// Package hostile is the seeded fault-injection layer for the
// asynchronous runtimes: it lifts the synchronous engine's topology
// adversaries (internal/adversary) into cluster.Transport middleware,
// adds an adaptive adversary that reads the telemetry rank scoreboard,
// replays recorded mobility traces, and mutates packets in flight
// (duplication, stale-epoch replay, truncation, bit flips,
// cross-generation reordering). What a layer decides for a packet
// depends only on its sender's own sends and the tick: the mutator
// draws from one seeded stream per sender and keeps its hold-back slot
// and replay reservoir per sender, and the adversary computes each
// tick's topology once, when the tick is observed. So under the
// lockstep drivers a hostile run is — like churn and loss — a pure
// function of the run seed at any shard count, whatever order the
// sharded emit phase's Sends arrive in.
//
// The layers compose with the existing middlewares (WithLoss,
// WithReorder, WithDelay, WithPartition) but must sit ABOVE them in the
// stack (closer to the sender): both WithAdversary and WithMutator run
// on the sender's goroutine and attribute their telemetry events to the
// sender's ring, which WithDelay, releasing from the driver's goroutine,
// would break under the wall-clock drivers. The cliutil stacking
// helpers preserve this order.
//
// Clock: the layers keep none. Every driver pushes the run's tick into
// the stack via cluster.TickObserver, which every cluster.Layer
// forwards, so it reaches these layers wherever they sit; under the
// wall-clock drivers a tick is an emission Interval, and
// identically-seeded processes see approximately the same topology
// schedule.
package hostile

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// TopoConfig tunes the WithAdversary middleware.
type TopoConfig struct {
	// Telemetry, when non-nil, traces every blocked Send as a
	// KindAdvCut event on the sender's ring.
	Telemetry *telemetry.Recorder
}

// advTransport filters Sends through a per-tick adversary topology.
type advTransport struct {
	cluster.Layer
	adv dynnet.Adversary
	cfg TopoConfig

	mu   sync.Mutex
	tick int64
	cur  *graph.Graph // tick's topology, valid until the next query (nil: none yet)
}

// WithAdversary decorates t so a Send is dropped unless the adversary's
// topology for the current tick has the (from, to) edge: the
// synchronous model's "the adversary chooses each round's graph",
// replayed against the asynchronous runtimes. The adversary is queried
// once per observed tick (its returned graph is held for the tick,
// compatible with scratch-reusing adversaries like RandomConnected), and
// for tick 0 by a Send before the first; ids outside the graph's vertex
// range are always blocked. A nil adversary returns t unchanged.
func WithAdversary(t cluster.Transport, adv dynnet.Adversary, cfg TopoConfig) cluster.Transport {
	if adv == nil {
		return t
	}
	return &advTransport{Layer: cluster.Layer{Transport: t}, adv: adv, cfg: cfg}
}

// ObserveTick implements cluster.TickObserver: the driver's clock, and
// where the tick's topology is computed — before any of the tick's
// Sends, so that what the adversary reads (Adaptive: the rank
// scoreboard, which a node may Publish to in the middle of an emit
// phase) is the same whichever sender comes first. Forwarded down the
// stack so lower tick-aware layers advance too.
func (a *advTransport) ObserveTick(tick int64) {
	a.mu.Lock()
	if tick > a.tick || a.cur == nil {
		a.tick = tick
		a.cur = a.adv.Graph(int(tick), nil)
	}
	a.mu.Unlock()
	cluster.ObserveTick(a.Transport, tick)
}

func (a *advTransport) Send(from, to int, pkt []byte) bool {
	a.mu.Lock()
	if a.cur == nil {
		a.cur = a.adv.Graph(0, nil)
	}
	n, tick := a.cur.N(), a.tick
	up := from >= 0 && from < n && to >= 0 && to < n && a.cur.HasEdge(from, to)
	a.mu.Unlock()
	if !up {
		a.cfg.Telemetry.Event(from, tick, telemetry.KindAdvCut, int64(to), 0, 0)
		return false
	}
	return a.Transport.Send(from, to, pkt)
}
