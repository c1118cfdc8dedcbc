// Package hostile is the seeded fault injection of the asynchronous
// runtimes, as rules of the run's cluster.Schedule: the synchronous
// engine's topology adversaries (internal/adversary), an adaptive
// adversary that reads the run's progress (cluster.Oracle), recorded
// mobility traces, and packet mutation (duplication, stale-epoch replay,
// truncation, bit flips, cross-generation reordering). Each rule draws
// per sender and the adversary's topology is fixed per tick, so a
// lockstep hostile run is a pure function of the seed at any shard
// count. Both rules stamp telemetry on the sender's ring, so they go
// above any WithDelay, whose releases run on the driver's goroutine.
package hostile

import (
	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// WithAdversary adds a rule to t that drops a packet unless the
// adversary's topology for the current tick has the (from, to) edge:
// the synchronous model's "the adversary chooses each round's graph",
// replayed against the asynchronous runtimes. The adversary is queried
// once per observed tick, before any of the tick's Sends (so what it
// reads, an Adaptive's run progress, which a node may Publish in the
// middle of an emit phase, is the same whichever sender comes first),
// and for tick 0 by a Send before the first; the graph it returns is
// held for the tick, as scratch-reusing adversaries like
// RandomConnected need. An adversary with a Watch method (Adaptive) is
// handed the run with the rule (cluster.Rule.Watch). Ids outside the
// graph's vertex range are always blocked. tel, when non-nil, traces
// every blocked Send as a KindAdvCut event on the sender's ring; it
// only records. A nil adversary returns t unchanged.
func WithAdversary(t cluster.Transport, adv dynnet.Adversary, tel *telemetry.Recorder) cluster.Transport {
	if adv == nil {
		return t
	}
	var cur *graph.Graph // the tick's topology (nil: none yet)
	var at int64
	var watch func(cluster.Oracle)
	if w, ok := adv.(interface{ Watch(cluster.Oracle) }); ok {
		watch = w.Watch
	}
	return cluster.WithRule(t, cluster.Rule{
		Watch: watch,
		Observe: func(tick int64) {
			if tick > at || cur == nil {
				at, cur = tick, adv.Graph(int(tick), nil)
			}
		},
		Decide: func(from, to int, _ []byte, tick int64) cluster.Verdict {
			if cur == nil {
				cur = adv.Graph(0, nil)
			}
			if n := cur.N(); from >= 0 && from < n && to >= 0 && to < n && cur.HasEdge(from, to) {
				return cluster.Verdict{}
			}
			tel.Event(from, tick, telemetry.KindAdvCut, int64(to), 0, 0)
			return cluster.Verdict{Act: cluster.Drop, Cause: cluster.DropAdversary}
		},
	})
}
