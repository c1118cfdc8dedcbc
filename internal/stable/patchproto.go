// Package stable implements Section 8 of the paper: exploiting T-stable
// dynamic networks (the topology changes only every T rounds) for a
// quadratic T^2 speedup via network coding. It contains the distributed
// patch-building protocol of Section 8.1 (Luby's MIS on the powered
// graph, simulated with hop-limited flooding), the share-pass-share
// coded broadcast of Section 8.2 (Lemma 8.1), the T-stable k-token
// dissemination driver of Section 8.3 (Theorem 2.4), and the
// token-forwarding baseline it is compared against.
package stable

import (
	"fmt"
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/forwarding"
	"repro/internal/graph"
)

// maxLubyIterations bounds the Luby loop; the expected iteration count
// is O(log n) with high probability.
func maxLubyIterations(n int) int {
	iters := 8
	for m := n; m > 1; m /= 2 {
		iters += 4
	}
	return iters
}

// BuildPatches runs the distributed Section 8.1 patch construction as
// phases of the session (whose adversary must be serving a stable
// connected graph for the duration):
//
//  1. Luby iterations on G^d: active nodes draw unique random
//     priorities; flooding the maximum for d rounds computes each node's
//     maximum active priority within distance d; local maxima join the
//     MIS; flooding a deactivation bit for d rounds removes their
//     d-neighbourhoods.
//  2. A claim wave: leaders flood (leader, distance) claims for 2d+2
//     rounds; every node adopts the closest (ties: lowest-ID) leader and
//     records the neighbour that delivered the winning claim as its
//     tree parent.
//
// The returned Patching satisfies the Section 8.1 invariants (validated
// by the caller against the actual graph in tests).
func BuildPatches(s *dynnet.Session, d int, rng *rand.Rand) (*graph.Patching, error) {
	n := s.N()
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	inMIS := make([]bool, n)
	remaining := n

	for iter := 0; remaining > 0; iter++ {
		if iter >= maxLubyIterations(n) {
			return nil, fmt.Errorf("stable: Luby did not converge in %d iterations", iter)
		}
		// Unique positive priorities for active nodes; zero for inactive
		// nodes, which then act purely as relays.
		prio := make([]uint64, n)
		for i := range prio {
			if active[i] {
				prio[i] = (uint64(rng.Uint32())+1)<<32 | uint64(uint32(i))
			}
		}
		heard, err := forwarding.FloodMax(s, prio, 64, d)
		if err != nil {
			return nil, err
		}
		joined := make([]bool, n)
		deact := make([]uint64, n)
		for i := range joined {
			joined[i] = active[i] && heard[i] == prio[i]
			if joined[i] {
				deact[i] = 1
			}
		}
		// Deactivation wave: a 1-bit flood from fresh MIS members for d
		// rounds deactivates their d-neighbourhoods.
		if deact, err = forwarding.FloodMax(s, deact, 1, d); err != nil {
			return nil, err
		}
		for i := range active {
			if joined[i] {
				inMIS[i] = true
			}
			if active[i] && deact[i] == 1 {
				active[i] = false
				remaining--
			}
		}
	}

	// Claim wave.
	claims := make([]*claimNode, n)
	for i := range claims {
		claims[i] = newClaimNode(i, inMIS[i])
	}
	if err := dynnet.Run(s, claims, 2*d+2); err != nil {
		return nil, err
	}

	p := &graph.Patching{
		D:       d,
		PatchOf: make([]int, n),
		Parent:  make([]int, n),
		Depth:   make([]int, n),
	}
	for i := range claims {
		if inMIS[i] {
			p.Leaders = append(p.Leaders, i)
		}
		if claims[i].bestLeader < 0 {
			return nil, fmt.Errorf("stable: node %d received no claim (graph disconnected or d too small)", i)
		}
		p.PatchOf[i] = claims[i].bestLeader
		p.Parent[i] = claims[i].parent
		p.Depth[i] = claims[i].bestDist
	}
	return p, nil
}

// claimMsg carries a leader claim: "I am at distance Dist from Leader".
type claimMsg struct {
	Leader int
	Dist   int
	Sender int
}

// Bits charges three O(log n)-bit fields.
func (claimMsg) Bits() int { return 96 }

// claimNode adopts the best (lowest distance, then lowest leader) claim
// it hears and rebroadcasts it, recording the delivering neighbour as
// its tree parent.
type claimNode struct {
	id         int
	bestLeader int
	bestDist   int
	parent     int
}

var _ dynnet.Node = (*claimNode)(nil)

func newClaimNode(id int, leader bool) *claimNode {
	c := &claimNode{id: id, bestLeader: -1, bestDist: 1 << 30, parent: -1}
	if leader {
		c.bestLeader = id
		c.bestDist = 0
	}
	return c
}

func (c *claimNode) Send(int) dynnet.Message {
	if c.bestLeader < 0 {
		return nil
	}
	return claimMsg{Leader: c.bestLeader, Dist: c.bestDist, Sender: c.id}
}

func (c *claimNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		cm, ok := m.(claimMsg)
		if !ok {
			continue
		}
		dist := cm.Dist + 1
		better := dist < c.bestDist ||
			(dist == c.bestDist && cm.Leader < c.bestLeader) ||
			(dist == c.bestDist && cm.Leader == c.bestLeader && cm.Sender < c.parent)
		if better {
			c.bestLeader = cm.Leader
			c.bestDist = dist
			c.parent = cm.Sender
		}
	}
}
