// Package dynnet implements the dynamic network model of Kuhn, Lynch and
// Oshman (STOC 2010) that the paper's algorithms run in: n nodes with
// unique IDs proceed in synchronized rounds; in every round an adversary
// picks a fresh connected topology; each node then broadcasts one O(b)-bit
// message chosen without knowledge of who its neighbours for the round
// will be, and receives the messages of all its neighbours.
//
// The session enforces the model's two teeth: the adversary is consulted
// before nodes speak (adaptive adversary, Section 4.1), and every message
// is charged against the b-bit budget, which is what makes the paper's
// message-size trade-offs measurable.
package dynnet

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Message is anything a node broadcasts in a round. Bits reports the
// message's size, which the session checks against the round budget.
type Message interface {
	Bits() int
}

// Node is one protocol participant: two methods, no clock. A phase of r
// rounds calls Send then Receive on every node exactly r times; when a
// phase ends is the schedule's business — the paper's algorithms all run
// on round schedules every node knows in advance — not the node's.
type Node interface {
	// Send returns the broadcast message for the round, or nil to stay
	// silent. Send is called without any information about the round's
	// topology (anonymous broadcast). The message must stay valid until
	// the node's next Send: all of a round's messages are collected
	// before any is delivered, so a node may reuse one scratch buffer.
	Send(round int) Message
	// Receive delivers the messages of all neighbours for the round.
	// The slice is session-owned scratch, valid only for the duration of
	// the call: implementations must copy what they keep.
	Receive(round int, msgs []Message)
}

// Adversary chooses the topology for each round. The adaptive adversary
// of the paper may inspect the full node state (it is handed the nodes)
// but not the still-unchosen random messages of the round.
type Adversary interface {
	// Graph returns the connected communication graph for the round.
	Graph(round int, nodes []Node) *graph.Graph
}

// OmniscientAdversary is the Section 6 adversary that additionally sees
// the messages the nodes are about to send (it "knows all randomness in
// advance"). When a Session's adversary implements this interface the
// session collects all messages first and lets the adversary pick the
// topology afterwards.
type OmniscientAdversary interface {
	Adversary
	// GraphAfterMessages is like Graph but also receives the round's
	// already-fixed messages, indexed by node.
	GraphAfterMessages(round int, nodes []Node, msgs []Message) *graph.Graph
}

// Config configures a Session.
type Config struct {
	// BitBudget is the per-message size bound b in bits; 0 disables
	// enforcement.
	BitBudget int
	// ValidateConnectivity makes the session reject rounds whose
	// topology is disconnected, which the model forbids the adversary
	// from serving. It costs O(n + m) per round, so it is off by default
	// and enabled in tests.
	ValidateConnectivity bool
}

// Metrics accumulates cost counters across phases.
type Metrics struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Messages is the number of non-nil broadcasts.
	Messages int
	// Bits is the total size of all broadcasts. A broadcast is charged
	// once regardless of neighbour count, matching the model's "one
	// message per node per round".
	Bits int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int
}

// Session is the one synchronous runner: n node slots, an adversary, a
// global round counter and cost metrics. A protocol is a sequence of
// phases run on it; each phase supplies its own node implementations
// (sharing per-node state owned by the caller) and its round count,
// while the counter, the adversary and the metrics carry across phases.
// This matches the paper's algorithms, which interleave flooding,
// random-forwarding and coded-broadcast phases on fixed schedules.
// Sessions are not safe for concurrent use.
type Session struct {
	adv     Adversary
	cfg     Config
	metrics Metrics
	round   int
	// nodes holds the running phase's participants as the adversary
	// sees them. msgs and inbuf are per-round scratch reused across
	// rounds so the session's own bookkeeping allocates nothing in
	// steady state; both are only valid within a round: Receive
	// implementations must not retain them.
	nodes []Node
	msgs  []Message
	inbuf []Message
}

// ErrBudgetExceeded is wrapped by errors returned when a node broadcasts
// a message larger than the configured bit budget.
var ErrBudgetExceeded = errors.New("message over bit budget")

// ErrDisconnected is wrapped by errors returned when connectivity
// validation is enabled and the adversary serves a disconnected graph,
// which the model forbids.
var ErrDisconnected = errors.New("adversary graph disconnected")

// NewSession returns a session for n nodes against adv.
func NewSession(n int, adv Adversary, cfg Config) *Session {
	return &Session{adv: adv, cfg: cfg, nodes: make([]Node, n), msgs: make([]Message, n)}
}

// N returns the node count.
func (s *Session) N() int { return len(s.nodes) }

// Round returns the global round counter (rounds executed so far).
func (s *Session) Round() int { return s.round }

// Metrics returns the cost counters accumulated across all phases.
func (s *Session) Metrics() Metrics { return s.metrics }

// Run executes one phase: nodes, one per slot of s, for exactly rounds
// rounds. It is the only way rounds happen. A caller that wants to stop
// on a condition of its own runs one-round phases under its own cap.
func Run[N Node](s *Session, nodes []N, rounds int) error {
	if len(nodes) != len(s.nodes) {
		return fmt.Errorf("dynnet: phase has %d nodes, session has %d", len(nodes), len(s.nodes))
	}
	for i, n := range nodes {
		s.nodes[i] = n
	}
	for r := 0; r < rounds; r++ {
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// step executes one round: topology choice, message choice, delivery.
func (s *Session) step() error {
	// Section 4.1 order: the adaptive adversary fixes the topology based
	// on node state, then nodes draw their messages without knowing it.
	// Section 6 order: messages are fixed first, then the omniscient
	// adversary rewires with full knowledge of them.
	omni, isOmni := s.adv.(OmniscientAdversary)
	var g *graph.Graph
	if !isOmni {
		g = s.adv.Graph(s.round, s.nodes)
	}
	msgs := s.msgs
	for i, n := range s.nodes {
		m := n.Send(s.round)
		msgs[i] = m
		if m == nil {
			continue
		}
		if s.cfg.BitBudget > 0 && m.Bits() > s.cfg.BitBudget {
			return fmt.Errorf("dynnet: round %d node %d sent %d bits > budget %d: %w",
				s.round, i, m.Bits(), s.cfg.BitBudget, ErrBudgetExceeded)
		}
		s.metrics.Messages++
		s.metrics.Bits += int64(m.Bits())
		if m.Bits() > s.metrics.MaxMessageBits {
			s.metrics.MaxMessageBits = m.Bits()
		}
	}
	if isOmni {
		g = omni.GraphAfterMessages(s.round, s.nodes, msgs)
	}

	if g.N() != len(s.nodes) {
		return fmt.Errorf("dynnet: round %d adversary graph has %d vertices, want %d", s.round, g.N(), len(s.nodes))
	}
	if s.cfg.ValidateConnectivity && !g.IsConnected() {
		return fmt.Errorf("dynnet: round %d adversary served a disconnected graph: %w", s.round, ErrDisconnected)
	}

	for i, n := range s.nodes {
		in := s.inbuf[:0]
		for _, v := range g.Neighbors(i) {
			if msgs[v] != nil {
				in = append(in, msgs[v])
			}
		}
		s.inbuf = in[:0]
		n.Receive(s.round, in)
	}
	s.round++
	s.metrics.Rounds++
	return nil
}
