package graph

import (
	"math/rand"
	"testing"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self-loop ignored
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if len(g.Neighbors(0)) != 1 || len(g.Neighbors(1)) != 1 || len(g.Neighbors(2)) != 0 {
		t.Error("degree wrong")
	}
}

// diameter is the largest BFS distance over all sources of a connected
// graph: what the generator tests check shapes by.
func diameter(g *Graph) int {
	diam := 0
	for s := 0; s < g.N(); s++ {
		for _, d := range g.BFS(s) {
			diam = max(diam, d)
		}
	}
	return diam
}

func TestGenerators(t *testing.T) {
	tests := []struct {
		name      string
		g         *Graph
		wantEdges int
		wantDiam  int
	}{
		{"path5", Path(5), 4, 4},
		{"cycle5", Cycle(5), 5, 2},
		{"cycle2", Cycle(2), 1, 1},
		{"star6", Star(6), 5, 2},
		{"complete4", Complete(4), 6, 1},
		{"tree7", BinaryTree(7), 6, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.M(); got != tt.wantEdges {
				t.Errorf("edges = %d, want %d", got, tt.wantEdges)
			}
			if !tt.g.IsConnected() {
				t.Error("not connected")
			}
			if got := diameter(tt.g); got != tt.wantDiam {
				t.Errorf("diameter = %d, want %d", got, tt.wantDiam)
			}
		})
	}
}

func TestRandomGeneratorsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 50} {
		if !RandomTree(n, rng).IsConnected() {
			t.Errorf("RandomTree(%d) disconnected", n)
		}
		if !RandomConnected(n, n/2, rng).IsConnected() {
			t.Errorf("RandomConnected(%d) disconnected", n)
		}
		if n >= 3 && !RandomRegularish(n, 3, rng).IsConnected() {
			t.Errorf("RandomRegularish(%d) disconnected", n)
		}
	}
}

func TestRandomTreeEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 5, 40} {
		g := RandomTree(n, rng)
		want := n - 1
		if n == 0 {
			want = 0
		}
		if g.M() != want {
			t.Errorf("RandomTree(%d) has %d edges, want %d", n, g.M(), want)
		}
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := Path(6)
	dist := g.BFS(2)
	want := []int{2, 1, 0, 1, 2, 3}
	for i, d := range dist {
		if d != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d, want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != -1 {
		t.Errorf("unreachable vertex has dist %d, want -1", dist[2])
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// 3x4 grid: 3*3 horizontal + 2*4 vertical = 17 edges.
	if g.M() != 17 {
		t.Errorf("M = %d, want 17", g.M())
	}
	if !g.IsConnected() {
		t.Error("grid disconnected")
	}
	if got, want := diameter(g), 2+3; got != want {
		t.Errorf("diameter = %d, want %d", got, want)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 16*4/2 {
		t.Errorf("M = %d, want 32", g.M())
	}
	for v := 0; v < 16; v++ {
		if len(g.Neighbors(v)) != 4 {
			t.Errorf("degree(%d) = %d, want 4", v, len(g.Neighbors(v)))
		}
	}
	if diameter(g) != 4 {
		t.Errorf("diameter = %d, want 4", diameter(g))
	}
}

func TestSquarishGridAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 1; n <= 40; n++ {
		g, err := Named("grid", n, rng)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.N() != n {
			t.Errorf("n=%d: got %d vertices", n, g.N())
		}
		if n > 1 && !g.IsConnected() {
			t.Errorf("n=%d: disconnected", n)
		}
	}
}

func TestNamed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"path", "cycle", "star", "complete", "tree", "random", "expander", "grid"} {
		g, err := Named(name, 12, rng)
		if err != nil {
			t.Errorf("Named(%q): %v", name, err)
			continue
		}
		if g.N() != 12 || !g.IsConnected() {
			t.Errorf("Named(%q): n=%d connected=%v", name, g.N(), g.IsConnected())
		}
	}
	if _, err := Named("nope", 5, rng); err == nil {
		t.Error("Named(nope) should fail")
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	want := [][2]int{{0, 2}, {1, 2}, {1, 3}}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("edges = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Path(3)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("clone shares storage with original")
	}
}

// TestRandomConnectedIntoMatchesAllocating pins that the in-place
// generators draw the same edge sequence as the allocating ones and
// that Reset fully clears stale adjacency between rebuilds.
func TestRandomConnectedIntoMatchesAllocating(t *testing.T) {
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	scratch := New(0)
	for round := 0; round < 30; round++ {
		n := 2 + round%17
		extra := round % 7
		want := RandomConnected(n, extra, rngA)
		RandomConnectedInto(scratch, n, extra, rngB)
		if scratch.N() != want.N() || scratch.M() != want.M() {
			t.Fatalf("round %d: size diverged: %d/%d vs %d/%d", round, scratch.N(), scratch.M(), want.N(), want.M())
		}
		we, ge := want.Edges(), scratch.Edges()
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("round %d: edge %d diverged", round, i)
			}
		}
		for u := 0; u < n; u++ {
			if len(scratch.Neighbors(u)) != len(want.Neighbors(u)) {
				t.Fatalf("round %d: degree of %d diverged (stale adjacency?)", round, u)
			}
		}
	}
}

// TestGraphResetSteadyStateZeroAlloc pins that rebuilding a same-sized
// random topology into a warmed scratch graph allocates nothing.
func TestGraphResetSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New(64)
	for i := 0; i < 10; i++ {
		RandomConnectedInto(g, 64, 32, rng) // warm capacities and map buckets
	}
	allocs := testing.AllocsPerRun(50, func() {
		RandomConnectedInto(g, 64, 32, rng)
	})
	if allocs != 0 {
		t.Fatalf("warmed rebuild allocated %.1f times per round, want 0", allocs)
	}
}
