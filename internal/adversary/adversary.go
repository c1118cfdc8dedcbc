// Package adversary provides the topology schedulers that play the
// adversary role of the dynamic network model: oblivious random rewiring,
// fixed topologies, T-stable wrappers, rotating worst-case permutations,
// and the adaptive "isolate the informed" strategy that realizes the
// hard instances behind the paper's lower-bound discussion.
package adversary

import (
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/keyed"
)

// Func adapts a plain function to dynnet.Adversary.
type Func func(round int, nodes []dynnet.Node) *graph.Graph

// Graph implements dynnet.Adversary.
func (f Func) Graph(round int, nodes []dynnet.Node) *graph.Graph {
	return f(round, nodes)
}

// Static serves the same fixed graph every round (the fully static
// special case of the model).
type Static struct {
	g *graph.Graph
}

var _ dynnet.Adversary = (*Static)(nil)

// NewStatic returns an adversary that always serves g.
func NewStatic(g *graph.Graph) *Static { return &Static{g: g} }

// Graph returns the fixed topology.
func (s *Static) Graph(int, []dynnet.Node) *graph.Graph { return s.g }

// RandomConnected serves a fresh random connected topology every round:
// a random spanning tree plus Extra random edges. It is oblivious (it
// never inspects node state) but fully dynamic, and is the default
// "churn" adversary of the experiments.
//
// The adversary owns one scratch graph that it rebuilds in place on
// every query, so per-round topology churn is allocation-free in steady
// state. Consumers therefore must not hold the returned graph across
// Graph calls — the dynnet engine and its observers already obey this
// (a round's graph is only used within the round), and TStable queries
// the inner adversary exactly once per stability window.
type RandomConnected struct {
	n       int
	extra   int
	rng     *rand.Rand
	scratch *graph.Graph
}

var _ dynnet.Adversary = (*RandomConnected)(nil)

// NewRandomConnected returns a random-rewiring adversary over n nodes
// adding extra edges beyond the spanning tree, seeded deterministically.
func NewRandomConnected(n, extra int, seed int64) *RandomConnected {
	return &RandomConnected{n: n, extra: extra, rng: keyed.Rand(seed, keyed.Topology), scratch: graph.New(n)}
}

// Graph returns the round's random connected topology, valid until the
// next Graph call.
func (a *RandomConnected) Graph(int, []dynnet.Node) *graph.Graph {
	graph.RandomConnectedInto(a.scratch, a.n, a.extra, a.rng)
	return a.scratch
}

// TStable wraps an inner adversary and re-queries it only every T rounds,
// producing the T-stable dynamics of Section 8 ("the entire network
// changes only every T steps").
type TStable struct {
	inner dynnet.Adversary
	t     int
	cur   *graph.Graph
	until int
}

var _ dynnet.Adversary = (*TStable)(nil)

// NewTStable wraps inner so its topology is held fixed for windows of t
// rounds. t must be >= 1.
func NewTStable(inner dynnet.Adversary, t int) *TStable {
	if t < 1 {
		panic("adversary: T must be >= 1")
	}
	return &TStable{inner: inner, t: t}
}

// T returns the stability parameter.
func (a *TStable) T() int { return a.t }

// Current returns the topology of the window in force, or nil before the
// first query. Drivers use it to validate patch invariants; protocol
// nodes never see it.
func (a *TStable) Current() *graph.Graph { return a.cur }

// Graph returns the current window's topology, advancing the window when
// the round crosses a multiple of T.
func (a *TStable) Graph(round int, nodes []dynnet.Node) *graph.Graph {
	if a.cur == nil || round >= a.until {
		a.cur = a.inner.Graph(round, nodes)
		a.until = round - round%a.t + a.t
	}
	return a.cur
}

// TInterval realizes the paper's T-interval connectivity (the Kuhn et
// al. stability notion the conclusion hopes to extend Section 8 to): in
// every window of T rounds a random spanning tree persists, while the
// remaining edges are re-randomized every round. This is strictly
// weaker than T-stability — only a spanning subgraph is stable — and
// the patch-based coded algorithms do not (yet) apply to it; the
// forwarding baselines do.
type TInterval struct {
	n     int
	t     int
	extra int
	rng   *rand.Rand
	tree  *graph.Graph
	until int
}

var _ dynnet.Adversary = (*TInterval)(nil)

// NewTInterval returns a T-interval-connected adversary over n nodes
// with extra churning edges per round.
func NewTInterval(n, t, extra int, seed int64) *TInterval {
	if t < 1 {
		panic("adversary: T must be >= 1")
	}
	return &TInterval{n: n, t: t, extra: extra, rng: keyed.Rand(seed, keyed.Topology)}
}

// Graph returns the window's stable spanning tree plus fresh random
// edges for the round.
func (a *TInterval) Graph(round int, _ []dynnet.Node) *graph.Graph {
	if a.tree == nil || round >= a.until {
		a.tree = graph.RandomTree(a.n, a.rng)
		a.until = round - round%a.t + a.t
	}
	g := a.tree.Clone()
	for i := 0; i < a.extra; i++ {
		g.AddEdge(a.rng.Intn(a.n), a.rng.Intn(a.n))
	}
	return g
}

// RotatingPath serves a path whose vertex order is re-randomized every
// round. This is the classic hard instance for token forwarding: a node's
// neighbours change completely each round, so it cannot know which token
// its next neighbour is missing.
type RotatingPath struct {
	n   int
	rng *rand.Rand
}

var _ dynnet.Adversary = (*RotatingPath)(nil)

// NewRotatingPath returns a rotating-path adversary over n nodes.
func NewRotatingPath(n int, seed int64) *RotatingPath {
	return &RotatingPath{n: n, rng: keyed.Rand(seed, keyed.Topology)}
}

// Graph returns a path over a fresh random permutation of the vertices.
func (a *RotatingPath) Graph(int, []dynnet.Node) *graph.Graph {
	perm := a.rng.Perm(a.n)
	g := graph.New(a.n)
	for i := 0; i+1 < a.n; i++ {
		g.AddEdge(perm[i], perm[i+1])
	}
	return g
}

// IsolateInformed is the adaptive adversary sketch behind the paper's
// lower-bound intuition: given a predicate identifying "informed" nodes,
// it serves a topology with the minimum legal contact between informed
// and uninformed nodes — a path of uninformed nodes attached by a single
// edge to a path of informed nodes. Information can cross only one edge
// per round, forcing Omega(n) spreading time.
type IsolateInformed struct {
	n        int
	informed func(i int, nodes []dynnet.Node) bool
	rng      *rand.Rand
}

var _ dynnet.Adversary = (*IsolateInformed)(nil)

// NewIsolateInformed returns the bottleneck adversary. The informed
// predicate inspects node i's state each round.
func NewIsolateInformed(n int, seed int64, informed func(i int, nodes []dynnet.Node) bool) *IsolateInformed {
	return &IsolateInformed{n: n, informed: informed, rng: keyed.Rand(seed, keyed.Topology)}
}

// Graph builds the two-path bottleneck topology for the round. The order
// within each side is shuffled every round so no forwarding schedule can
// exploit stability.
func (a *IsolateInformed) Graph(round int, nodes []dynnet.Node) *graph.Graph {
	var in, out []int
	for i := 0; i < a.n; i++ {
		if a.informed(i, nodes) {
			in = append(in, i)
		} else {
			out = append(out, i)
		}
	}
	a.rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	a.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	g := graph.New(a.n)
	chain := func(vs []int) {
		for i := 0; i+1 < len(vs); i++ {
			g.AddEdge(vs[i], vs[i+1])
		}
	}
	chain(in)
	chain(out)
	// Exactly one crossing edge keeps the graph connected, as the model
	// requires, while minimizing information flow.
	if len(in) > 0 && len(out) > 0 {
		g.AddEdge(in[len(in)-1], out[0])
	}
	return g
}

// Named constructs a seeded adversary by name for the CLI tools.
// Supported: random, rotating-path, static-<topology> (e.g. static-path).
func Named(name string, n int, seed int64) (dynnet.Adversary, error) {
	rng := keyed.Rand(seed, keyed.Topology)
	switch name {
	case "random":
		return NewRandomConnected(n, n/2, seed), nil
	case "rotating-path":
		return NewRotatingPath(n, seed), nil
	default:
		const prefix = "static-"
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			g, err := graph.Named(name[len(prefix):], n, rng)
			if err != nil {
				return nil, err
			}
			return NewStatic(g), nil
		}
		return nil, errUnknown(name)
	}
}

func errUnknown(name string) error {
	return &unknownError{name: name}
}

type unknownError struct{ name string }

func (e *unknownError) Error() string {
	return "adversary: unknown adversary " + e.name + " (want random, rotating-path or static-<topology>)"
}
