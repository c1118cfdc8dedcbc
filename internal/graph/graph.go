// Package graph provides the static-graph machinery the dynamic network
// model is built from: adjacency structures, generators for the topologies
// adversaries serve, BFS distances, and the patch decomposition of
// Section 8.1 of the paper as a checked data type (stable.BuildPatches
// computes one distributedly; Patching.Validate is its judge).
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..n-1.
type Graph struct {
	n   int
	adj [][]int
	has map[edge]struct{}
}

type edge struct{ u, v int }

func normEdge(u, v int) edge {
	if u > v {
		u, v = v, u
	}
	return edge{u: u, v: v}
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:   n,
		adj: make([][]int, n),
		has: make(map[edge]struct{}),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Reset empties g and resizes it to n vertices, keeping the adjacency
// slices' capacity and the edge map's buckets so a generator that
// rebuilds a similarly-sized topology into g every round (the dynamic
// network adversaries) allocates nothing in steady state.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n <= cap(g.adj) {
		g.adj = g.adj[:n]
	} else {
		fresh := make([][]int, n)
		copy(fresh, g.adj[:cap(g.adj)])
		g.adj = fresh
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	clear(g.has)
	g.n = n
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.checkVertex(u)
	g.checkVertex(v)
	e := normEdge(u, v)
	if _, ok := g.has[e]; ok {
		return
	}
	g.has[e] = struct{}{}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	_, ok := g.has[normEdge(u, v)]
	return ok
}

// Neighbors returns the adjacency list of u. The returned slice is
// internal storage; callers must not modify it.
func (g *Graph) Neighbors(u int) []int {
	g.checkVertex(u)
	return g.adj[u]
}

func (g *Graph) checkVertex(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for e := range g.has {
		c.AddEdge(e.u, e.v)
	}
	return c
}

// Edges returns all edges in a deterministic order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, len(g.has))
	for e := range g.has {
		out = append(out, [2]int{e.u, e.v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// BFS returns the distance from src to every vertex, with -1 for
// unreachable vertices.
func (g *Graph) BFS(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// IsConnected reports whether g is connected. The empty graph and the
// one-vertex graph are connected.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}
