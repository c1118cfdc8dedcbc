package dynnet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// bitMsg is a message that is just a size.
type bitMsg int

func (m bitMsg) Bits() int { return int(m) }

// floodNode learns a bit and rebroadcasts it.
type floodNode struct{ informed bool }

type floodMsg struct{}

func (floodMsg) Bits() int { return 1 }

func (n *floodNode) Send(int) Message {
	if n.informed {
		return floodMsg{}
	}
	return nil
}

func (n *floodNode) Receive(_ int, msgs []Message) {
	if len(msgs) > 0 {
		n.informed = true
	}
}

// staticAdv serves one graph and counts how often it is consulted.
type staticAdv struct {
	g     *graph.Graph
	calls int
}

func (a *staticAdv) Graph(int, []Node) *graph.Graph { a.calls++; return a.g }

func TestFloodOnPathTakesDiameterRounds(t *testing.T) {
	const n = 8 // a path of diameter n-1
	nodes := make([]*floodNode, n)
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	nodes[0].informed = true
	s := NewSession(n, &staticAdv{g: graph.Path(n)}, Config{BitBudget: 8})
	if err := Run(s, nodes, n-2); err != nil {
		t.Fatal(err)
	}
	if nodes[n-1].informed {
		t.Errorf("far end informed after %d rounds, diameter is %d", n-2, n-1)
	}
	if err := Run(s, nodes, 1); err != nil {
		t.Fatal(err)
	}
	for i, fn := range nodes {
		if !fn.informed {
			t.Errorf("node %d not informed after diameter rounds", i)
		}
	}
	// The node at distance d speaks from round d on: one message per
	// informed node per round, one bit each.
	want := 0
	for r := 0; r < n-1; r++ {
		want += r + 1
	}
	if m := s.Metrics(); m.Messages != want || m.Bits != int64(want) || m.MaxMessageBits != 1 {
		t.Errorf("metrics = %+v, want %d one-bit messages", m, want)
	}
}

// fixedSender broadcasts size bits every round and counts its calls.
type fixedSender struct {
	size            int
	sends, receives int
}

func (s *fixedSender) Send(int) Message       { s.sends++; return bitMsg(s.size) }
func (s *fixedSender) Receive(int, []Message) { s.receives++ }

func senders(n, size int) []*fixedSender {
	out := make([]*fixedSender, n)
	for i := range out {
		out[i] = &fixedSender{size: size}
	}
	return out
}

// TestPhaseCallsEveryNodeEveryRound is the phase contract: r rounds are
// r Sends and r Receives on every node and r adversary consultations,
// whatever the nodes think of the time.
func TestPhaseCallsEveryNodeEveryRound(t *testing.T) {
	const n, r = 5, 7
	adv := &staticAdv{g: graph.Cycle(n)}
	s := NewSession(n, adv, Config{})
	nodes := senders(n, 1)
	if err := Run(s, nodes, r); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		if nd.sends != r || nd.receives != r {
			t.Errorf("node %d: %d sends, %d receives, want %d each", i, nd.sends, nd.receives, r)
		}
	}
	if adv.calls != r {
		t.Errorf("adversary consulted %d times, want %d", adv.calls, r)
	}
	if s.Round() != r || s.Metrics().Rounds != r {
		t.Errorf("round = %d, metrics = %+v, want %d rounds", s.Round(), s.Metrics(), r)
	}
}

func TestBudgetEnforced(t *testing.T) {
	s := NewSession(2, &staticAdv{g: graph.Path(2)}, Config{BitBudget: 50})
	err := Run(s, []*fixedSender{{size: 100}, {size: 5}}, 3)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestZeroBudgetDisablesEnforcement(t *testing.T) {
	s := NewSession(2, &staticAdv{g: graph.Path(2)}, Config{})
	if err := Run(s, []*fixedSender{{size: 1 << 20}, {size: 1}}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestAdversaryGraphSizeChecked(t *testing.T) {
	s := NewSession(1, &staticAdv{g: graph.New(3)}, Config{})
	err := Run(s, senders(1, 1), 5)
	if err == nil || !strings.Contains(err.Error(), "adversary graph has 3 vertices, want 1") {
		t.Errorf("mismatched graph size: err = %v", err)
	}
}

func TestConnectivityValidation(t *testing.T) {
	disc := graph.New(3)
	disc.AddEdge(0, 1) // vertex 2 isolated
	s := NewSession(3, &staticAdv{g: disc}, Config{ValidateConnectivity: true})
	if err := Run(s, senders(3, 1), 5); !errors.Is(err, ErrDisconnected) {
		t.Errorf("err = %v, want ErrDisconnected", err)
	}
	// Without validation the same topology is tolerated.
	s = NewSession(3, &staticAdv{g: disc}, Config{})
	if err := Run(s, senders(3, 1), 5); err != nil {
		t.Errorf("unexpected error without validation: %v", err)
	}
}

// omniProbe records whether GraphAfterMessages saw the round's messages.
type omniProbe struct {
	sawMsgs bool
}

func (o *omniProbe) Graph(int, []Node) *graph.Graph { return graph.New(1) }

func (o *omniProbe) GraphAfterMessages(round int, nodes []Node, msgs []Message) *graph.Graph {
	for _, m := range msgs {
		if m != nil {
			o.sawMsgs = true
		}
	}
	return graph.New(1)
}

func TestOmniscientOrdering(t *testing.T) {
	probe := &omniProbe{}
	s := NewSession(1, probe, Config{})
	if err := Run(s, senders(1, 1), 2); err != nil {
		t.Fatal(err)
	}
	if !probe.sawMsgs {
		t.Error("omniscient adversary did not observe messages before topology choice")
	}
}

// TestSessionPhases: the round counter and the metrics carry across
// phases, whatever node type each phase runs.
func TestSessionPhases(t *testing.T) {
	const n = 4
	s := NewSession(n, &staticAdv{g: graph.Cycle(n)}, Config{BitBudget: 8})
	if err := Run(s, senders(n, 2), 5); err != nil {
		t.Fatal(err)
	}
	if s.Round() != 5 {
		t.Errorf("round = %d, want 5", s.Round())
	}
	informed := make([]*floodNode, n)
	for i := range informed {
		informed[i] = &floodNode{informed: true}
	}
	if err := Run(s, informed, 3); err != nil {
		t.Fatal(err)
	}
	if s.Round() != 8 {
		t.Errorf("round = %d, want 8", s.Round())
	}
	m := s.Metrics()
	if m.Rounds != 8 || m.Messages != 8*n {
		t.Errorf("metrics = %+v", m)
	}
	if m.Bits != int64(5*n*2+3*n) || m.MaxMessageBits != 2 {
		t.Errorf("bits = %d, max = %d, want %d and 2", m.Bits, m.MaxMessageBits, 5*n*2+3*n)
	}
}

func TestSessionWrongSize(t *testing.T) {
	s := NewSession(3, &staticAdv{g: graph.Path(3)}, Config{})
	err := Run(s, senders(1, 1), 1)
	if err == nil || !strings.Contains(err.Error(), "phase has 1 nodes, session has 3") {
		t.Errorf("phase with wrong node count: err = %v", err)
	}
}
