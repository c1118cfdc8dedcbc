package stable

import (
	"fmt"
	"math/rand"

	"repro/internal/dynnet"
	"repro/internal/gf"
	"repro/internal/graph"
	"repro/internal/rlnc"
)

// Section 8.2's share-pass-share meta-round operates on coded vectors of
// L = B + S bits (B block coefficients plus an S-bit block payload),
// far larger than one b-bit message. Vectors move through three
// pipelined phases per meta-round, each exchanging chunkBits-bit pieces:
//
//	share: every patch computes one random linear combination of the
//	       union of its members' received vectors (pipelined tree sum
//	       to the leader), and distributes it to all members
//	       (pipelined tree broadcast);
//	pass:  every node broadcasts its patch's combination to its
//	       neighbours, which may be in other patches;
//	share: repeated, folding in the passed vectors.

// chunkHeaderBits is the per-chunk header: kind, sender, leader and
// chunk index at O(log n) bits each.
const chunkHeaderBits = 4 * 32

// chunkMsg carries one piece of a coded vector through a pipeline phase.
type chunkMsg struct {
	Sender int
	Leader int
	Idx    int
	Data   gf.BitVec
}

// Bits charges the header plus the piece.
func (m chunkMsg) Bits() int { return chunkHeaderBits + m.Data.Len() }

// sumUpNode implements the pipelined converge-cast of the share step:
// node at depth delta sends its accumulated chunk i at local round
// i + (D - delta), by which time all children (depth delta+1, sending at
// i + D - delta - 1) have contributed. After C + D rounds the leader
// holds the patch-wide XOR.
type sumUpNode struct {
	id       int
	depth    int
	maxDepth int
	parent   []int // the patching's tree: parent[v] == id makes v a child
	chunks   []gf.BitVec
	elapsed  int
}

var _ dynnet.Node = (*sumUpNode)(nil)

func newSumUpNode(id int, p *graph.Patching, local gf.BitVec, chunkBits, maxDepth int) *sumUpNode {
	return &sumUpNode{
		id:       id,
		depth:    p.Depth[id],
		maxDepth: maxDepth,
		parent:   p.Parent,
		chunks:   splitChunks(local, chunkBits),
	}
}

func (u *sumUpNode) Send(int) dynnet.Message {
	i := u.elapsed - (u.maxDepth - u.depth)
	if i < 0 || i >= len(u.chunks) || u.depth == 0 {
		return nil // leaders never send upward
	}
	return chunkMsg{Sender: u.id, Idx: i, Data: u.chunks[i]}
}

func (u *sumUpNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		cm, ok := m.(chunkMsg)
		if !ok || u.parent[cm.Sender] != u.id {
			continue
		}
		u.chunks[cm.Idx].Xor(cm.Data)
	}
	u.elapsed++
}

// downNode implements the pipelined tree broadcast: the leader emits
// chunk i at local round i; a node at depth delta relays chunk i at
// round i + delta, having received it from its parent one round earlier.
type downNode struct {
	id      int
	depth   int
	parent  int
	chunks  []gf.BitVec // nil until received (leader starts full)
	elapsed int
}

var _ dynnet.Node = (*downNode)(nil)

func newDownNode(id int, p *graph.Patching, chunks []gf.BitVec, nChunks int) *downNode {
	d := &downNode{id: id, depth: p.Depth[id], parent: p.Parent[id]}
	if d.depth == 0 {
		d.chunks = chunks
	} else {
		d.chunks = make([]gf.BitVec, nChunks)
	}
	return d
}

func (d *downNode) Send(int) dynnet.Message {
	i := d.elapsed - d.depth
	if i < 0 || i >= len(d.chunks) || d.chunks[i].Len() == 0 {
		return nil
	}
	return chunkMsg{Sender: d.id, Idx: i, Data: d.chunks[i]}
}

func (d *downNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		cm, ok := m.(chunkMsg)
		if !ok || cm.Sender != d.parent {
			continue
		}
		if d.chunks[cm.Idx].Len() == 0 {
			d.chunks[cm.Idx] = cm.Data.Clone()
		}
	}
	d.elapsed++
}

// passNode broadcasts its patch's vector in C chunks and reassembles
// every complete foreign vector it hears, keyed by sender.
type passNode struct {
	id      int
	leader  int
	chunks  []gf.BitVec
	heard   map[int][]gf.BitVec
	total   int
	elapsed int
}

var _ dynnet.Node = (*passNode)(nil)

func newPassNode(id, leader int, vec gf.BitVec, chunkBits int) *passNode {
	return &passNode{
		id:     id,
		leader: leader,
		chunks: splitChunks(vec, chunkBits),
		heard:  make(map[int][]gf.BitVec),
		total:  vec.Len(),
	}
}

func (p *passNode) Send(int) dynnet.Message {
	if p.elapsed >= len(p.chunks) {
		return nil
	}
	return chunkMsg{Sender: p.id, Leader: p.leader, Idx: p.elapsed, Data: p.chunks[p.elapsed]}
}

func (p *passNode) Receive(_ int, msgs []dynnet.Message) {
	for _, m := range msgs {
		cm, ok := m.(chunkMsg)
		if !ok {
			continue
		}
		buf := p.heard[cm.Sender]
		if buf == nil {
			buf = make([]gf.BitVec, len(p.chunks))
			p.heard[cm.Sender] = buf
		}
		if cm.Idx < len(buf) {
			buf[cm.Idx] = cm.Data
		}
	}
	p.elapsed++
}

// received returns every completely reassembled foreign vector.
func (p *passNode) received() ([]gf.BitVec, error) {
	var out []gf.BitVec
	for _, buf := range p.heard {
		complete := true
		for _, c := range buf {
			if c.Len() == 0 {
				complete = false
				break
			}
		}
		if !complete {
			continue // a pass cut short by phase boundaries; drop it
		}
		v, err := joinChunks(buf, p.total)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// metaRound executes one share-pass-share cycle over the given patches:
// spans[i] is node i's coding state; every patch combination computed in
// either share step is inserted into every member's span, and passed
// vectors are inserted at their recipients.
//
// secondShare false skips the second share step. The paper's Lemma 8.1
// analysis uses both shares so each meta-round independently satisfies
// its two-case progress guarantee. Operationally, however, consecutive
// meta-rounds fuse: meta-round i+1's first share performs exactly the
// distribution job of meta-round i's second share, so dropping the
// second share (a share-pass pipeline) preserves progress per round and
// saves ~40% of the meta-round cost. The ablation in AblationMetaRounds
// measures this; Broadcast keeps the paper's three-step form for
// fidelity.
func metaRound(
	s *dynnet.Session,
	p *graph.Patching,
	spans []*rlnc.Span,
	rngs []*rand.Rand,
	chunkBits int,
	secondShare bool,
) error {
	vecs, err := sharePhase(s, p, spans, rngs, chunkBits)
	if err != nil {
		return err
	}
	if err := passPhase(s, p, spans, vecs, chunkBits); err != nil {
		return err
	}
	if secondShare {
		_, err = sharePhase(s, p, spans, rngs, chunkBits)
	}
	return err
}

// sharePhase runs sum-up then broadcast-down, inserting the patch
// combination into every member's span, and returns each node's patch
// vector for a subsequent pass.
func sharePhase(
	s *dynnet.Session,
	p *graph.Patching,
	spans []*rlnc.Span,
	rngs []*rand.Rand,
	chunkBits int,
) ([]gf.BitVec, error) {
	n := s.N()
	vecLen := spans[0].K() + spans[0].PayloadBits()
	maxDepth := p.MaxDepth()

	// Local random combinations (zero vector when a span is empty — it
	// contributes nothing to the patch sum).
	local := make([]gf.BitVec, n)
	for i := range local {
		if c, ok := spans[i].Combine(rngs[i]); ok {
			local[i] = c.Vec
		} else {
			local[i] = gf.NewBitVec(vecLen)
		}
	}

	// Sum up: the last chunk of the deepest node reaches its leader
	// after C + D rounds.
	ups := make([]*sumUpNode, n)
	for i := range ups {
		ups[i] = newSumUpNode(i, p, local[i], chunkBits, maxDepth)
	}
	nC := numChunks(vecLen, chunkBits)
	if err := dynnet.Run(s, ups, nC+maxDepth); err != nil {
		return nil, err
	}

	// Broadcast down from each leader, the same C + D rounds.
	downs := make([]*downNode, n)
	for i := range downs {
		var chunks []gf.BitVec
		if p.Depth[i] == 0 {
			chunks = ups[i].chunks
		}
		downs[i] = newDownNode(i, p, chunks, nC)
	}
	if err := dynnet.Run(s, downs, nC+maxDepth); err != nil {
		return nil, err
	}

	out := make([]gf.BitVec, n)
	for i := range downs {
		v, err := joinChunks(downs[i].chunks, vecLen)
		if err != nil {
			return nil, fmt.Errorf("stable: share: node %d incomplete patch vector: %w", i, err)
		}
		out[i] = v
		spans[i].Add(rlnc.Coded{K: spans[i].K(), Vec: v})
	}
	return out, nil
}

// passPhase has every node broadcast its patch vector; completed foreign
// vectors join the recipients' spans.
func passPhase(
	s *dynnet.Session,
	p *graph.Patching,
	spans []*rlnc.Span,
	vecs []gf.BitVec,
	chunkBits int,
) error {
	n := s.N()
	passes := make([]*passNode, n)
	for i := range passes {
		passes[i] = newPassNode(i, p.PatchOf[i], vecs[i], chunkBits)
	}
	vecLen := vecs[0].Len()
	if err := dynnet.Run(s, passes, numChunks(vecLen, chunkBits)); err != nil {
		return err
	}
	for i := range passes {
		got, err := passes[i].received()
		if err != nil {
			return err
		}
		for _, v := range got {
			spans[i].Add(rlnc.Coded{K: spans[i].K(), Vec: v})
		}
	}
	return nil
}
