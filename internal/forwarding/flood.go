package forwarding

import (
	"sort"

	"repro/internal/dynnet"
)

// MaxFloodNode floods the maximum of a 64-bit value across the network:
// every round it broadcasts the largest value it has seen. After n-1
// rounds on always-connected dynamics every node knows the global
// maximum. Callers pack (count, id) or similar orderings into the value.
type MaxFloodNode struct {
	best  uint64
	width int
}

var _ dynnet.Node = (*MaxFloodNode)(nil)

// NewMaxFloodNode returns a node starting with value own, charging width
// bits per message.
func NewMaxFloodNode(own uint64, width int) *MaxFloodNode {
	return &MaxFloodNode{best: own, width: width}
}

// Best returns the largest value seen so far.
func (m *MaxFloodNode) Best() uint64 { return m.best }

// Send broadcasts the current maximum.
func (m *MaxFloodNode) Send(int) dynnet.Message {
	return ValuesMsg{Width: m.width, Values: []uint64{m.best}}
}

// Receive keeps the maximum over all heard values.
func (m *MaxFloodNode) Receive(_ int, msgs []dynnet.Message) {
	for _, msg := range msgs {
		vm, ok := msg.(ValuesMsg)
		if !ok {
			continue
		}
		for _, v := range vm.Values {
			if v > m.best {
				m.best = v
			}
		}
	}
}

// SmallestFloodNode floods the s globally smallest values: every round
// it broadcasts the (up to) perMsg smallest values it knows; each of the
// s globally smallest values is always among any node's s smallest, so
// for perMsg >= s each floods within n-1 rounds. It is the indexing
// subroutine of Corollary 7.1 (token UIDs as values) and of
// priority-forward (block priorities as values).
type SmallestFloodNode struct {
	keep   int
	perMsg int
	width  int
	known  []uint64
	seen   map[uint64]bool
}

var _ dynnet.Node = (*SmallestFloodNode)(nil)

// NewSmallestFloodNode returns a node that starts knowing own, keeps the
// keep smallest values and broadcasts at most perMsg of them per round
// at width bits each.
func NewSmallestFloodNode(own []uint64, keep, perMsg, width int) *SmallestFloodNode {
	n := &SmallestFloodNode{keep: keep, perMsg: perMsg, width: width, seen: make(map[uint64]bool)}
	for _, v := range own {
		n.add(v)
	}
	return n
}

func (s *SmallestFloodNode) add(v uint64) {
	if s.seen[v] {
		return
	}
	s.seen[v] = true
	s.known = append(s.known, v)
	sort.Slice(s.known, func(i, j int) bool { return s.known[i] < s.known[j] })
	if len(s.known) > s.keep {
		delete(s.seen, s.known[len(s.known)-1])
		s.known = s.known[:s.keep]
	}
}

// Smallest returns the currently known smallest values, ascending.
func (s *SmallestFloodNode) Smallest() []uint64 {
	out := make([]uint64, len(s.known))
	copy(out, s.known)
	return out
}

// Send broadcasts the perMsg smallest known values.
func (s *SmallestFloodNode) Send(int) dynnet.Message {
	if len(s.known) == 0 {
		return nil
	}
	m := s.perMsg
	if m > len(s.known) {
		m = len(s.known)
	}
	vals := make([]uint64, m)
	copy(vals, s.known[:m])
	return ValuesMsg{Width: s.width, Values: vals}
}

// Receive merges heard values.
func (s *SmallestFloodNode) Receive(_ int, msgs []dynnet.Message) {
	for _, msg := range msgs {
		vm, ok := msg.(ValuesMsg)
		if !ok {
			continue
		}
		for _, v := range vm.Values {
			s.add(v)
		}
	}
}

// PackCountID packs a (count, node ID) pair so that uint64 ordering is
// "higher count wins; ties to the lower ID", as used to identify the
// node with the maximum token count after random-forward.
func PackCountID(count, id, n int) uint64 {
	return uint64(count)<<32 | uint64(uint32(n-1-id))
}

// UnpackCountID reverses PackCountID.
func UnpackCountID(v uint64, n int) (count, id int) {
	return int(v >> 32), n - 1 - int(uint32(v))
}
