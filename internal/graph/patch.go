package graph

import "fmt"

// Patching is the Section 8.1 decomposition of a (stable) graph into
// connected patches of radius at most D around the vertices of a maximal
// independent set of G^D. Each patch carries a shortest-path tree rooted
// at its leader, which the T-stable share-pass-share protocol pipelines
// over.
type Patching struct {
	// D is the patching radius parameter.
	D int
	// Leaders lists the MIS vertices, one per patch, in increasing order.
	Leaders []int
	// PatchOf maps each vertex to its leader.
	PatchOf []int
	// Parent is the tree parent of each vertex within its patch
	// (-1 for leaders).
	Parent []int
	// Depth is the tree depth of each vertex (0 for leaders).
	Depth []int
}

// MaxDepth returns the deepest tree depth over all patches.
func (p *Patching) MaxDepth() int {
	m := 0
	for _, d := range p.Depth {
		if d > m {
			m = d
		}
	}
	return m
}

// Validate checks the structural invariants Section 8.1 promises:
// every vertex is assigned, depths are at most D, parents stay within the
// patch, and distinct leaders are more than D apart in g.
func (p *Patching) Validate(g *Graph) error {
	for v, l := range p.PatchOf {
		if l < 0 {
			return fmt.Errorf("graph: vertex %d unassigned", v)
		}
		if p.Depth[v] > p.D {
			return fmt.Errorf("graph: vertex %d at depth %d > D=%d", v, p.Depth[v], p.D)
		}
		if par := p.Parent[v]; par >= 0 {
			if p.PatchOf[par] != l {
				return fmt.Errorf("graph: vertex %d parent %d is in another patch", v, par)
			}
			if !g.HasEdge(v, par) {
				return fmt.Errorf("graph: vertex %d parent %d not adjacent", v, par)
			}
			if p.Depth[par] != p.Depth[v]-1 {
				return fmt.Errorf("graph: vertex %d depth %d but parent depth %d", v, p.Depth[v], p.Depth[par])
			}
		} else if v != l {
			return fmt.Errorf("graph: non-leader %d has no parent", v)
		}
	}
	for i, a := range p.Leaders {
		dist := g.BFS(a)
		for _, b := range p.Leaders[i+1:] {
			if dist[b] <= p.D {
				return fmt.Errorf("graph: leaders %d and %d at distance %d <= D=%d", a, b, dist[b], p.D)
			}
		}
	}
	return nil
}
