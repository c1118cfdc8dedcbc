package graph

// Exported functions only this package's tests call.

// Members returns the vertices of the patch led by leader, in increasing
// order.
func (p *Patching) Members(leader int) []int {
	var out []int
	for v, l := range p.PatchOf {
		if l == leader {
			out = append(out, v)
		}
	}
	return out
}

// Children returns each vertex's tree children, indexed by vertex.
func (p *Patching) Children() [][]int {
	ch := make([][]int, len(p.Parent))
	for v, par := range p.Parent {
		if par >= 0 {
			ch[par] = append(ch[par], v)
		}
	}
	return ch
}
