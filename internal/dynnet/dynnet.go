// Package dynnet implements the dynamic network model of Kuhn, Lynch and
// Oshman (STOC 2010) that the paper's algorithms run in: n nodes with
// unique IDs proceed in synchronized rounds; in every round an adversary
// picks a fresh connected topology; each node then broadcasts one O(b)-bit
// message chosen without knowledge of who its neighbours for the round
// will be, and receives the messages of all its neighbours.
//
// The engine enforces the model's two teeth: the adversary is consulted
// before nodes speak (adaptive adversary, Section 4.1), and every message
// is charged against the b-bit budget, which is what makes the paper's
// message-size trade-offs measurable.
package dynnet

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// NodeID identifies a node; IDs are 0..n-1. The model gives nodes unique
// O(log n)-bit UIDs, which we realize as their index.
type NodeID = int

// Message is anything a node broadcasts in a round. Bits reports the
// message's size, which the engine checks against the round budget.
type Message interface {
	Bits() int
}

// Node is one protocol participant. The engine calls Send exactly once
// per round on every non-terminated node and then Receive exactly once
// with the (possibly empty) set of neighbour messages.
type Node interface {
	// Send returns the broadcast message for the round, or nil to stay
	// silent. Send is called without any information about the round's
	// topology (anonymous broadcast).
	Send(round int) Message
	// Receive delivers the messages of all neighbours for the round.
	// The slice is engine-owned scratch, valid only for the duration of
	// the call: implementations must copy what they keep.
	Receive(round int, msgs []Message)
	// Done reports whether the node has terminated.
	Done() bool
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
// advance"). When an Engine's adversary implements this interface the
// engine collects all messages first and lets the adversary pick the
// topology afterwards.
type OmniscientAdversary interface {
	Adversary
	// GraphAfterMessages is like Graph but also receives the round's
	// already-fixed messages, indexed by node.
	GraphAfterMessages(round int, nodes []Node, msgs []Message) *graph.Graph
}

// Config configures an Engine.
type Config struct {
	// BitBudget is the per-message size bound b in bits; 0 disables
	// enforcement.
	BitBudget int
	// MaxRounds aborts the run after this many rounds; 0 means the
	// package default (DefaultMaxRounds).
	MaxRounds int
	// ValidateConnectivity makes the engine reject rounds whose topology
	// is disconnected, which the model forbids the adversary from
	// serving. It costs O(n + m) per round, so it is off by default and
	// enabled in tests.
	ValidateConnectivity bool
	// Observer, when non-nil, is invoked after every round with the
	// round's topology and messages (nil entries for silent nodes).
	// Observers must not retain or mutate their arguments.
	Observer Observer
}

// Observer receives a callback after each executed round; the trace
// package uses it to record spreading dynamics without touching the
// protocols.
type Observer interface {
	ObserveRound(round int, g *graph.Graph, msgs []Message, nodes []Node)
}

// DefaultMaxRounds is the safety cap on a single Run when the caller does
// not provide one.
const DefaultMaxRounds = 1 << 20

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

// Engine drives a set of nodes against an adversary. Engines are not safe
// for concurrent use.
type Engine struct {
	nodes   []Node
	adv     Adversary
	cfg     Config
	metrics Metrics
	round   int
	// msgs and inbuf are per-round scratch reused across Steps so the
	// engine's own bookkeeping allocates nothing in steady state. Both
	// are only valid within a Step: Receive implementations and
	// Observers must not retain the slices they are handed.
	msgs  []Message
	inbuf []Message
}

// ErrBudgetExceeded is wrapped by errors returned when a node broadcasts
// a message larger than the configured bit budget.
var ErrBudgetExceeded = errors.New("message over bit budget")

// ErrMaxRounds is wrapped by errors returned when a run hits the round cap
// before every node terminated.
var ErrMaxRounds = errors.New("round limit reached")

// ErrDisconnected is wrapped by errors returned when connectivity
// validation is enabled and the adversary serves a disconnected graph,
// which the model forbids.
var ErrDisconnected = errors.New("adversary graph disconnected")

// NewEngine returns an engine over the given nodes and adversary.
func NewEngine(nodes []Node, adv Adversary, cfg Config) *Engine {
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	return &Engine{nodes: nodes, adv: adv, cfg: cfg}
}

// Nodes returns the engine's nodes.
func (e *Engine) Nodes() []Node { return e.nodes }

// Round returns the global round counter (rounds executed so far).
func (e *Engine) Round() int { return e.round }

// Metrics returns the accumulated cost counters.
func (e *Engine) Metrics() Metrics { return e.metrics }

// Step executes one round: topology choice, message choice, delivery.
func (e *Engine) Step() error {
	omni, isOmni := e.adv.(OmniscientAdversary)

	var g *graph.Graph
	if len(e.msgs) != len(e.nodes) {
		e.msgs = make([]Message, len(e.nodes))
	}
	msgs := e.msgs
	for i := range msgs {
		msgs[i] = nil
	}

	collect := func() error {
		for i, n := range e.nodes {
			if n.Done() {
				continue
			}
			m := n.Send(e.round)
			if m == nil {
				continue
			}
			if e.cfg.BitBudget > 0 && m.Bits() > e.cfg.BitBudget {
				return fmt.Errorf("dynnet: round %d node %d sent %d bits > budget %d: %w",
					e.round, i, m.Bits(), e.cfg.BitBudget, ErrBudgetExceeded)
			}
			msgs[i] = m
			e.metrics.Messages++
			e.metrics.Bits += int64(m.Bits())
			if m.Bits() > e.metrics.MaxMessageBits {
				e.metrics.MaxMessageBits = m.Bits()
			}
		}
		return nil
	}

	if isOmni {
		// Section 6 order: messages are fixed first, then the omniscient
		// adversary rewires with full knowledge of them.
		if err := collect(); err != nil {
			return err
		}
		g = omni.GraphAfterMessages(e.round, e.nodes, msgs)
	} else {
		// Section 4.1 order: the adaptive adversary fixes the topology
		// based on node state, then nodes draw their messages without
		// knowing it.
		g = e.adv.Graph(e.round, e.nodes)
		if err := collect(); err != nil {
			return err
		}
	}

	if g.N() != len(e.nodes) {
		return fmt.Errorf("dynnet: round %d adversary graph has %d vertices, want %d", e.round, g.N(), len(e.nodes))
	}
	if e.cfg.ValidateConnectivity && !g.IsConnected() {
		return fmt.Errorf("dynnet: round %d adversary served a disconnected graph: %w", e.round, ErrDisconnected)
	}

	for i, n := range e.nodes {
		if n.Done() {
			continue
		}
		in := e.inbuf[:0]
		for _, v := range g.Neighbors(i) {
			if msgs[v] != nil {
				in = append(in, msgs[v])
			}
		}
		e.inbuf = in[:0]
		n.Receive(e.round, in)
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.ObserveRound(e.round, g, msgs, e.nodes)
	}
	e.round++
	e.metrics.Rounds++
	return nil
}

// AllDone reports whether every node has terminated.
func (e *Engine) AllDone() bool {
	for _, n := range e.nodes {
		if !n.Done() {
			return false
		}
	}
	return true
}

// Run steps until every node is done, returning the total rounds executed
// by this call. It fails with ErrMaxRounds if the cap is hit first.
func (e *Engine) Run() (int, error) {
	start := e.round
	for !e.AllDone() {
		if e.round-start >= e.cfg.MaxRounds {
			return e.round - start, fmt.Errorf("dynnet: %d rounds without termination: %w", e.cfg.MaxRounds, ErrMaxRounds)
		}
		if err := e.Step(); err != nil {
			return e.round - start, err
		}
	}
	return e.round - start, nil
}

// RunRounds executes exactly r rounds regardless of node termination
// state (used by fixed-schedule phases).
func (e *Engine) RunRounds(r int) error {
	for i := 0; i < r; i++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}
