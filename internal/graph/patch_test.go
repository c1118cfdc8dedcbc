package graph

import "testing"

func TestPatchingChildrenAndDepth(t *testing.T) {
	// Path(10) at D = 2: leaders three apart, everyone with the closer one.
	p := &Patching{
		D:       2,
		Leaders: []int{0, 3, 6, 9},
		PatchOf: []int{0, 0, 3, 3, 3, 6, 6, 6, 9, 9},
		Parent:  []int{-1, 0, 3, -1, 3, 6, -1, 6, 9, -1},
		Depth:   []int{0, 1, 1, 0, 1, 1, 0, 1, 1, 0},
	}
	if err := p.Validate(Path(10)); err != nil {
		t.Fatal(err)
	}
	ch := p.Children()
	// Every child relationship must mirror Parent.
	for v, par := range p.Parent {
		if par < 0 {
			continue
		}
		found := false
		for _, c := range ch[par] {
			if c == v {
				found = true
			}
		}
		if !found {
			t.Errorf("vertex %d missing from children of %d", v, par)
		}
	}
	if p.MaxDepth() > 2 {
		t.Errorf("max depth %d > D", p.MaxDepth())
	}
}

func TestPatchingSingleVertex(t *testing.T) {
	p := &Patching{D: 1, Leaders: []int{0}, PatchOf: []int{0}, Parent: []int{-1}, Depth: []int{0}}
	if err := p.Validate(New(1)); err != nil {
		t.Errorf("the patching of K_1 is rejected: %v", err)
	}
	if got := p.Members(0); len(got) != 1 || got[0] != 0 || p.MaxDepth() != 0 || len(p.Children()[0]) != 0 {
		t.Errorf("unexpected patching of K_1: %+v", p)
	}
}
