package hostile

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/keyed"
)

// Adaptive is the paper-shaped adaptive adversary for the asynchronous
// runtimes: each round it reads every live node's decoding progress
// from the run (cluster.Oracle) and serves the connectivity-preserving
// worst case — a path over the live nodes sorted by progress.
// Neighbours then have near-identical knowledge, so innovation can only
// trickle across the rank boundary one edge per round, generalizing
// adversary.IsolateInformed from an informed/uninformed bipartition to
// the full rank order. Ties are shuffled with the adversary's own
// seeded RNG; ids that are not live (never spawned, crashed, left) are
// chained onto the tail, keeping the served graph connected over the
// whole id space without ever placing a dead node as a cut vertex
// between live ones.
type Adaptive struct {
	n    int
	rng  *rand.Rand
	run  cluster.Oracle
	g    *graph.Graph
	path []rankedID // scratch: the round's path, live ids by progress first
}

type rankedID struct{ id, rank int }

var _ dynnet.Adversary = (*Adaptive)(nil)

// NewAdaptive returns the rank-path adversary over an id space of n.
func NewAdaptive(n int, seed int64) *Adaptive {
	return &Adaptive{n: n, rng: keyed.Rand(seed, keyed.Adversary), g: graph.New(n)}
}

// Watch gives the adversary the run, read from its next round on (see
// WithAdversary); until then it serves the id-order path.
func (a *Adaptive) Watch(run cluster.Oracle) { a.run = run }

// Graph serves the round's rank-sorted path, valid until the next call.
func (a *Adaptive) Graph(int, []dynnet.Node) *graph.Graph {
	a.path = a.path[:0]
	live := 0
	for id := range a.n {
		// Snapshot before sorting: a comparator that re-read the run could
		// see an inconsistent order. Ids not live sort last, by id.
		rank := math.MaxInt
		if a.run != nil && a.run.Live(id) {
			rank, live = a.run.Progress(id), live+1
		}
		a.path = append(a.path, rankedID{id, rank})
	}
	slices.SortFunc(a.path, func(x, y rankedID) int { return cmp.Or(cmp.Compare(x.rank, y.rank), cmp.Compare(x.id, y.id)) })
	// Shuffle within equal-rank runs of live ids so the path is not
	// exploitable as stable, while staying a pure function of the seed
	// and the run's history.
	for lo := 0; lo < live; {
		hi := lo + 1
		for hi < live && a.path[hi].rank == a.path[lo].rank {
			hi++
		}
		a.rng.Shuffle(hi-lo, func(i, j int) {
			a.path[lo+i], a.path[lo+j] = a.path[lo+j], a.path[lo+i]
		})
		lo = hi
	}
	a.g.Reset(a.n)
	for i := 1; i < len(a.path); i++ {
		a.g.AddEdge(a.path[i-1].id, a.path[i].id)
	}
	return a.g
}
