package adversary

import (
	"testing"

	"repro/internal/dynnet"
	"repro/internal/graph"
)

func TestStatic(t *testing.T) {
	g := graph.Path(5)
	a := NewStatic(g)
	if got := a.Graph(0, nil); got != g {
		t.Error("static adversary did not return the fixed graph")
	}
	if got := a.Graph(99, nil); got != g {
		t.Error("static adversary changed graphs")
	}
}

func TestRandomConnectedAlwaysConnected(t *testing.T) {
	a := NewRandomConnected(20, 5, 1)
	// The adversary reuses one scratch graph across queries, so compare
	// edge snapshots rather than retained graphs.
	prev := a.Graph(0, nil).Edges()
	changed := false
	for r := 1; r < 50; r++ {
		g := a.Graph(r, nil)
		if !g.IsConnected() {
			t.Fatalf("round %d: disconnected graph", r)
		}
		if g.N() != 20 {
			t.Fatalf("round %d: n = %d", r, g.N())
		}
		cur := g.Edges()
		if !sameEdges(cur, prev) {
			changed = true
		}
		prev = cur
	}
	if !changed {
		t.Error("random adversary never changed the topology in 50 rounds")
	}
}

func sameEdges(ea, eb [][2]int) bool {
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

func TestTStableHoldsWindows(t *testing.T) {
	const T = 5
	inner := NewRandomConnected(10, 3, 2)
	a := NewTStable(inner, T)
	var window [][2]int
	for r := 0; r < 4*T; r++ {
		g := a.Graph(r, nil)
		if r%T == 0 {
			window = g.Edges()
			continue
		}
		if !sameEdges(g.Edges(), window) {
			t.Fatalf("round %d: topology changed inside a stability window", r)
		}
	}
	if a.T() != T {
		t.Errorf("T() = %d", a.T())
	}
}

func TestTStablePanicsOnBadT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("T=0 did not panic")
		}
	}()
	NewTStable(NewRandomConnected(4, 0, 1), 0)
}

func TestTIntervalKeepsSpanningTree(t *testing.T) {
	const n, T = 12, 4
	a := NewTInterval(n, T, 3, 6)
	var tree *graph.Graph
	for r := 0; r < 3*T; r++ {
		g := a.Graph(r, nil)
		if !g.IsConnected() {
			t.Fatalf("round %d: disconnected", r)
		}
		if r%T == 0 {
			// Reconstruct the window's tree from the first round of the
			// window: it is a subgraph of every round in the window.
			tree = g
			continue
		}
		// The window's spanning tree is a subgraph of every round in the
		// window, so the intersection with the window's first graph must
		// still contain a connected spanning subgraph.
		inter := intersect(tree, g)
		if !inter.IsConnected() {
			t.Fatalf("round %d: no stable connected spanning subgraph", r)
		}
	}
	if a.t != T {
		t.Errorf("t = %d", a.t)
	}
}

func intersect(a, b *graph.Graph) *graph.Graph {
	out := graph.New(a.N())
	for _, e := range a.Edges() {
		if b.HasEdge(e[0], e[1]) {
			out.AddEdge(e[0], e[1])
		}
	}
	return out
}

func TestTIntervalPanicsOnBadT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("T=0 did not panic")
		}
	}()
	NewTInterval(4, 0, 0, 1)
}

func TestRotatingPath(t *testing.T) {
	a := NewRotatingPath(12, 3)
	for r := 0; r < 20; r++ {
		g := a.Graph(r, nil)
		if !g.IsConnected() {
			t.Fatalf("round %d: disconnected", r)
		}
		if len(g.Edges()) != 11 {
			t.Fatalf("round %d: %d edges, want 11", r, len(g.Edges()))
		}
		// A path has exactly two degree-1 vertices.
		deg1 := 0
		for v := 0; v < 12; v++ {
			if len(g.Neighbors(v)) == 1 {
				deg1++
			}
		}
		if deg1 != 2 {
			t.Fatalf("round %d: %d endpoints, want 2", r, deg1)
		}
	}
}

func TestIsolateInformedBottleneck(t *testing.T) {
	informed := map[int]bool{0: true, 1: true, 2: true}
	a := NewIsolateInformed(9, 4, func(i int, _ []dynnet.Node) bool { return informed[i] })
	for r := 0; r < 10; r++ {
		g := a.Graph(r, nil)
		if !g.IsConnected() {
			t.Fatalf("round %d: disconnected", r)
		}
		// Exactly one edge may cross the informed/uninformed cut.
		crossings := 0
		for _, e := range g.Edges() {
			if informed[e[0]] != informed[e[1]] {
				crossings++
			}
		}
		if crossings != 1 {
			t.Fatalf("round %d: %d crossing edges, want 1", r, crossings)
		}
	}
}

func TestIsolateInformedAllInformed(t *testing.T) {
	a := NewIsolateInformed(5, 5, func(int, []dynnet.Node) bool { return true })
	g := a.Graph(0, nil)
	if !g.IsConnected() {
		t.Error("disconnected when everyone is informed")
	}
}

func TestNamed(t *testing.T) {
	for _, name := range []string{"random", "rotating-path", "static-path", "static-complete"} {
		a, err := Named(name, 8, 7)
		if err != nil {
			t.Errorf("Named(%q): %v", name, err)
			continue
		}
		g := a.Graph(0, nil)
		if g.N() != 8 || !g.IsConnected() {
			t.Errorf("Named(%q): bad graph", name)
		}
	}
	if _, err := Named("bogus", 8, 7); err == nil {
		t.Error("Named(bogus) should fail")
	}
	if _, err := Named("static-bogus", 8, 7); err == nil {
		t.Error("Named(static-bogus) should fail")
	}
}

func TestFuncAdapter(t *testing.T) {
	called := false
	var a dynnet.Adversary = Func(func(round int, nodes []dynnet.Node) *graph.Graph {
		called = true
		return graph.Path(2)
	})
	a.Graph(0, nil)
	if !called {
		t.Error("Func adapter did not invoke the function")
	}
}
