package hostile

import (
	"math/rand"
	"sort"

	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/keyed"
	"repro/internal/telemetry"
)

// Adaptive is the paper-shaped adaptive adversary for the asynchronous
// runtimes: each round it reads every node's decoding progress from the
// telemetry rank scoreboard (Recorder.LiveRank) and serves the
// connectivity-preserving worst case — a path over the nodes sorted by
// rank. Neighbours then have near-identical knowledge, so innovation
// can only trickle across the rank boundary one edge per round,
// generalizing adversary.IsolateInformed from an informed/uninformed
// bipartition to the full rank order. Ties are shuffled with the
// adversary's own seeded RNG; ids the recorder has not seen (or has
// seen crash/leave) are chained onto the tail, keeping the served graph
// connected over the whole id space without ever placing a dead node as
// a cut vertex between live ones.
//
// The recorder is the adversary's only window into the run, so runs
// that face an Adaptive must record telemetry (Config.Telemetry);
// without events the scoreboard is empty and the adversary degrades to
// a fixed id-order path.
type Adaptive struct {
	n      int
	rng    *rand.Rand
	rec    *telemetry.Recorder
	g      *graph.Graph
	ranked []rankedID // scratch: snapshot of the live scoreboard
	idle   []int      // scratch: unseen/dead ids
	order  []int      // scratch: the round's final path order
}

type rankedID struct {
	id   int
	rank int64
}

var _ dynnet.Adversary = (*Adaptive)(nil)

// NewAdaptive returns the rank-path adversary over an id space of n,
// reading rec's scoreboard each round. rec must not be nil.
func NewAdaptive(n int, seed int64, rec *telemetry.Recorder) *Adaptive {
	if rec == nil {
		panic("hostile: Adaptive needs a telemetry recorder")
	}
	return &Adaptive{n: n, rng: keyed.Rand(seed, keyed.Adversary), rec: rec, g: graph.New(n)}
}

// Graph serves the round's rank-sorted path, valid until the next call.
func (a *Adaptive) Graph(int, []dynnet.Node) *graph.Graph {
	a.ranked, a.idle = a.ranked[:0], a.idle[:0]
	for id := 0; id < a.n; id++ {
		// Snapshot the atomics before sorting: a comparator that re-read
		// them mid-sort could observe an inconsistent order.
		if rank, ok := a.rec.LiveRank(id); ok {
			a.ranked = append(a.ranked, rankedID{id: id, rank: rank})
		} else {
			a.idle = append(a.idle, id)
		}
	}
	sort.Slice(a.ranked, func(i, j int) bool {
		if a.ranked[i].rank != a.ranked[j].rank {
			return a.ranked[i].rank < a.ranked[j].rank
		}
		return a.ranked[i].id < a.ranked[j].id
	})
	// Shuffle within equal-rank runs so the path is not exploitable as
	// stable, while staying a pure function of the seed and the
	// scoreboard history.
	for lo := 0; lo < len(a.ranked); {
		hi := lo + 1
		for hi < len(a.ranked) && a.ranked[hi].rank == a.ranked[lo].rank {
			hi++
		}
		a.rng.Shuffle(hi-lo, func(i, j int) {
			a.ranked[lo+i], a.ranked[lo+j] = a.ranked[lo+j], a.ranked[lo+i]
		})
		lo = hi
	}
	a.order = a.order[:0]
	for _, r := range a.ranked {
		a.order = append(a.order, r.id)
	}
	a.order = append(a.order, a.idle...)
	a.g.Reset(a.n)
	for i := 0; i+1 < len(a.order); i++ {
		a.g.AddEdge(a.order[i], a.order[i+1])
	}
	return a.g
}
