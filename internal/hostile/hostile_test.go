package hostile_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/hostile"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// --- mutation spec grammar -------------------------------------------------

func TestParseMutationsRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want hostile.MutationSpec
	}{
		{"", hostile.MutationSpec{}},
		{"dup:0.05", hostile.MutationSpec{hostile.OpDup: 0.05}},
		{"dup:0.05,stale:0.1,trunc:0.02,flip:0.01,xgen:0.03",
			hostile.MutationSpec{hostile.OpDup: 0.05, hostile.OpStale: 0.1, hostile.OpTrunc: 0.02, hostile.OpFlip: 0.01, hostile.OpXgen: 0.03}},
		{"all:0.1", hostile.MutationSpec{hostile.OpDup: 0.1, hostile.OpStale: 0.1, hostile.OpTrunc: 0.1, hostile.OpFlip: 0.1, hostile.OpXgen: 0.1}},
		{" stale:0.2 , xgen:0.4 ", hostile.MutationSpec{hostile.OpStale: 0.2, hostile.OpXgen: 0.4}},
	}
	for op := range (hostile.MutationSpec{}) {
		var alone hostile.MutationSpec
		alone[op] = 0.25
		cases = append(cases, struct {
			in   string
			want hostile.MutationSpec
		}{hostile.Op(op).String() + ":0.25", alone})
	}
	for _, tc := range cases {
		got, err := hostile.ParseMutations(tc.in)
		if err != nil {
			t.Errorf("ParseMutations(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseMutations(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// The String render must re-parse to the same spec.
		again, err := hostile.ParseMutations(got.String())
		if err != nil || again != got {
			t.Errorf("round trip of %q via %q = %+v, %v", tc.in, got.String(), again, err)
		}
	}
}

func TestParseMutationsErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"melt:0.1", "unknown op"},
		{"dup", "want op:rate"},
		{"dup:0.1:0.2", "want op:rate"},
		{"dup:1.0", "rate must be in [0,1)"},
		{"dup:-0.1", "rate must be in [0,1)"},
		{"dup:zero", "rate must be in [0,1)"},
	}
	for _, tc := range cases {
		_, err := hostile.ParseMutations(tc.in)
		if err == nil {
			t.Errorf("ParseMutations(%q) accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseMutations(%q) error %q does not contain %q", tc.in, err, tc.want)
		}
	}
	// The unknown-op error must name every valid op, or the flag is
	// undiscoverable from the CLI.
	_, err := hostile.ParseMutations("melt:0.1")
	for op := range (hostile.MutationSpec{}) {
		if !strings.Contains(err.Error(), hostile.Op(op).String()) {
			t.Errorf("unknown-op error %q does not list valid op %q", err, hostile.Op(op))
		}
	}
}

// --- mutation byte recipes -------------------------------------------------

// validPacket marshals a real protocol packet with a nonzero epoch.
func validPacket(t *testing.T) []byte {
	t.Helper()
	return wire.NewHello(3, 7, wire.Hello{Peers: []uint32{1, 2}}).Marshal()
}

func TestMutateTruncAlwaysShorter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pkt := validPacket(t)
	for i := 0; i < 200; i++ {
		out := hostile.Mutate(hostile.OpTrunc, append([]byte(nil), pkt...), rng)
		if len(out) >= len(pkt) {
			t.Fatalf("trunc produced %d bytes from %d", len(out), len(pkt))
		}
	}
}

func TestMutateStaleRegressesEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pkt := validPacket(t)
	var orig, got wire.Packet
	if err := wire.UnmarshalInto(&orig, pkt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		out := hostile.Mutate(hostile.OpStale, pkt, rng)
		if err := wire.UnmarshalInto(&got, out); err != nil {
			t.Fatalf("stale packet no longer parses: %v", err)
		}
		if got.Env.Epoch >= orig.Env.Epoch {
			t.Fatalf("stale epoch %d not below original %d", got.Env.Epoch, orig.Env.Epoch)
		}
	}
}

// TestMutateFlipAlwaysRejected pins the no-checksum compensation: a
// bit-flipped packet must never parse, whatever bits the seeded rng
// picks — the wire format cannot detect a flip that lands in payload
// bytes, so the mutator re-corrupts the version byte when needed.
func TestMutateFlipAlwaysRejected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			out := hostile.Mutate(hostile.OpFlip, validPacket(t), rng)
			if err := wire.UnmarshalInto(new(wire.Packet), out); err == nil {
				t.Fatalf("flipped packet parsed (seed %d, iter %d)", seed, i)
			}
		}
	}
}

func TestMutateDupXgenAreByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pkt := validPacket(t)
	for _, op := range []hostile.Op{hostile.OpDup, hostile.OpXgen} {
		out := hostile.Mutate(op, pkt, rng)
		if &out[0] != &pkt[0] || len(out) != len(pkt) {
			t.Errorf("%v is not byte-identity at the recipe layer", op)
		}
	}
}

// --- mutator transport -----------------------------------------------------

// sendRec is one captured Send.
type sendRec struct {
	from, to int
	pkt      []byte
}

// capTransport records every Send (copying the bytes, like a real
// consumer) and accepts all of them.
type capTransport struct{ sends []sendRec }

func (c *capTransport) Send(from, to int, pkt []byte) bool {
	c.sends = append(c.sends, sendRec{from, to, append([]byte(nil), pkt...)})
	return true
}
func (c *capTransport) Recv(int) <-chan []byte { return nil }
func (c *capTransport) Close()                 {}

func TestWithMutatorDisabledIsIdentity(t *testing.T) {
	inner := &capTransport{}
	if got := hostile.WithMutator(inner, hostile.MutationSpec{}, 1, nil); got != cluster.Transport(inner) {
		t.Fatal("disabled mutator wrapped the transport")
	}
}

// TestWithMutatorStaleReplaysHistory pins the replay semantics: every
// extra packet a stale-only mutator emits is byte-identical to some
// packet previously offered to Send — never a forged epoch, which
// would poison generation spans undetectably (no integrity tag).
func TestWithMutatorStaleReplaysHistory(t *testing.T) {
	inner := &capTransport{}
	rec := telemetry.New(telemetry.Config{Nodes: 4})
	tr := hostile.WithMutator(inner, hostile.MutationSpec{hostile.OpStale: 0.5}, 42, rec)
	sent := map[string]bool{}
	for i := 0; i < 200; i++ {
		pkt := wire.NewHello(i%4, i+1, wire.Hello{}).Marshal()
		sent[string(pkt)] = true
		tr.Send(i%4, (i+1)%4, pkt)
	}
	if len(inner.sends) <= 200 {
		t.Fatalf("stale mutator at rate 0.5 added no replays in 200 sends (%d reached the wire)", len(inner.sends))
	}
	for _, s := range inner.sends {
		if !sent[string(s.pkt)] {
			t.Fatalf("wire carried a packet that was never sent: % x", s.pkt)
		}
	}
	if rec.Counters()["events_mutate"] == 0 {
		t.Error("no KindMutate telemetry recorded")
	}
}

func TestWithMutatorDupSendsIdenticalExtra(t *testing.T) {
	inner := &capTransport{}
	tr := hostile.WithMutator(inner, hostile.MutationSpec{hostile.OpDup: 1 - 1e-9}, 7, nil)
	pkt := validPacket(t)
	tr.Send(0, 1, append([]byte(nil), pkt...))
	if len(inner.sends) != 2 {
		t.Fatalf("dup at rate ~1 produced %d sends, want 2", len(inner.sends))
	}
	if string(inner.sends[0].pkt) != string(pkt) || string(inner.sends[1].pkt) != string(pkt) {
		t.Fatal("dup copies differ from the original")
	}
}

func TestWithMutatorXgenHoldsBackOneSlot(t *testing.T) {
	inner := &capTransport{}
	tr := hostile.WithMutator(inner, hostile.MutationSpec{hostile.OpXgen: 1 - 1e-9}, 7, nil)
	a, b := wire.NewHello(0, 1, wire.Hello{}).Marshal(), wire.NewHello(0, 2, wire.Hello{}).Marshal()
	if !tr.Send(0, 1, a) {
		t.Fatal("parked send reported false")
	}
	if len(inner.sends) != 0 {
		t.Fatalf("first xgen send reached the wire immediately (%d sends)", len(inner.sends))
	}
	tr.Send(0, 1, b)
	if len(inner.sends) != 1 || string(inner.sends[0].pkt) != string(a) {
		t.Fatalf("second send did not release the first parked packet (%d sends)", len(inner.sends))
	}
}

// --- adversary transport ---------------------------------------------------

// pathAdversary serves a fixed path 0-1-...-n-1 every round, recording
// how many distinct rounds were queried and the latest of them.
type pathAdversary struct {
	g       *graph.Graph
	queries int
	last    int
}

func newPathAdversary(n int) *pathAdversary {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return &pathAdversary{g: g}
}

func (p *pathAdversary) Graph(round int, _ []dynnet.Node) *graph.Graph {
	p.queries++
	p.last = round
	return p.g
}

func TestWithAdversaryNilIsIdentity(t *testing.T) {
	inner := &capTransport{}
	if got := hostile.WithAdversary(inner, nil, nil); got != cluster.Transport(inner) {
		t.Fatal("nil adversary wrapped the transport")
	}
}

func TestWithAdversaryFiltersEdges(t *testing.T) {
	inner := &capTransport{}
	rec := telemetry.New(telemetry.Config{Nodes: 4})
	tr := hostile.WithAdversary(inner, newPathAdversary(4), rec)
	if !tr.Send(0, 1, validPacket(t)) {
		t.Error("path edge 0-1 blocked")
	}
	if tr.Send(0, 2, validPacket(t)) {
		t.Error("non-edge 0-2 allowed")
	}
	if tr.Send(0, 3, validPacket(t)) {
		t.Error("non-edge 0-3 allowed")
	}
	if len(inner.sends) != 1 {
		t.Fatalf("%d sends reached the wire, want 1", len(inner.sends))
	}
	cuts := 0
	for _, ev := range rec.Events(0) {
		if ev.Kind == telemetry.KindAdvCut {
			cuts++
		}
	}
	if cuts != 2 {
		t.Errorf("recorded %d adv_cut events, want 2", cuts)
	}
}

// TestWithAdversaryQueriesOncePerTick pins the scratch-reuse contract:
// however many Sends land in a tick, the adversary's Graph method runs
// exactly once per distinct tick, so adversaries that rebuild (and
// draw rng) per call stay deterministic.
func TestWithAdversaryQueriesOncePerTick(t *testing.T) {
	inner := &capTransport{}
	adv := newPathAdversary(4)
	tr := hostile.WithAdversary(inner, adv, nil)
	cluster.ObserveTick(tr, 0)
	for i := 0; i < 10; i++ {
		tr.Send(0, 1, validPacket(t))
	}
	if adv.queries != 1 {
		t.Fatalf("adversary queried %d times in one tick, want 1", adv.queries)
	}
	cluster.ObserveTick(tr, 1)
	tr.Send(1, 2, validPacket(t))
	if adv.queries != 2 {
		t.Fatalf("adversary queried %d times across two ticks, want 2", adv.queries)
	}
}

// --- adaptive adversary ----------------------------------------------------

// oracle is a run by hand: the progress of each live id.
type oracle map[int]int

func (o oracle) Live(id int) bool { _, ok := o[id]; return ok }

func (o oracle) Progress(id int) int { return o[id] }

// TestAdaptiveServesRankSortedPath hands the adversary a run by hand
// and checks the served topology is a connected path whose interior
// edges join rank-neighbours, with the ids that are not live chained at
// the tail.
func TestAdaptiveServesRankSortedPath(t *testing.T) {
	const n = 6
	// Ranks: node 0 -> 5, node 1 -> 2, node 2 -> 9, node 5 -> 2; nodes
	// 3 (crashed) and 4 (never spawned) are not live.
	adv := hostile.NewAdaptive(n, 1)
	adv.Watch(oracle{0: 5, 1: 2, 2: 9, 5: 2})
	g := adv.Graph(0, nil)
	if !g.IsConnected() {
		t.Fatal("adaptive graph not connected")
	}
	for u := 0; u < n; u++ {
		if d := len(g.Neighbors(u)); d > 2 {
			t.Fatalf("node %d has degree %d in a path", u, d)
		}
	}
	if len(g.Edges()) != n-1 {
		t.Fatalf("adaptive graph has %d edges, want %d (a path)", len(g.Edges()), n-1)
	}
	// Node 2 (highest live rank 9) borders the idle tail {3, 4}: the
	// path is ranked-ascending then idle, so 2 must touch an idle node.
	if !g.HasEdge(2, 3) && !g.HasEdge(2, 4) {
		t.Error("highest-rank node does not border the idle tail")
	}
	// The two rank-2 nodes (1 and 5) must be adjacent in the sorted
	// path (the shuffle permutes within the tie, not across it).
	if !g.HasEdge(1, 5) {
		t.Error("equal-rank nodes 1 and 5 not adjacent in the rank path")
	}
	// Node 0 (rank 5) sits between the rank-2 pair and node 2.
	if !g.HasEdge(0, 2) || !(g.HasEdge(0, 1) || g.HasEdge(0, 5)) {
		t.Error("middle-rank node 0 does not join the rank-2 pair to node 2")
	}
}

func TestAdaptiveDeterministicPerSeed(t *testing.T) {
	const n = 8
	build := func(seed int64) [][2]int {
		run := oracle{}
		for id := 0; id < n; id++ {
			run[id] = id % 3
		}
		adv := hostile.NewAdaptive(n, seed)
		adv.Watch(run)
		var edges [][2]int
		for round := 0; round < 5; round++ {
			edges = append(edges, adv.Graph(round, nil).Edges()...)
		}
		return edges
	}
	a, b := build(11), build(11)
	if len(a) != len(b) {
		t.Fatalf("same seed, different edge counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different edge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// --- trace adversary -------------------------------------------------------

func TestParseTraceAndReplay(t *testing.T) {
	trace := `# mobility trace
5 0 1 down

10 1 2 down
10 0 1 up
`
	ta, err := hostile.ParseTrace(strings.NewReader(trace), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g := ta.Graph(0, nil); !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Error("round 0 should be the complete graph")
	}
	if g := ta.Graph(5, nil); g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("round 5 should have 0-1 down only")
	}
	if g := ta.Graph(10, nil); !g.HasEdge(0, 1) || g.HasEdge(1, 2) {
		t.Error("round 10 should have 0-1 back up and 1-2 down")
	}
	// Backward query replays from the start.
	if g := ta.Graph(6, nil); g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("backward query to round 6 did not reset the replay")
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"5 0 1", "want \"tick src dst up|down\""},
		{"x 0 1 up", "non-numeric"},
		{"-1 0 1 up", "must be non-negative"},
		{"5 0 3 up", "node ids must be in"},
		{"5 1 1 up", "self edge"},
		{"5 0 1 sideways", "state must be up or down"},
	}
	for _, tc := range cases {
		if _, err := hostile.ParseTrace(strings.NewReader(tc.in), 3); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseTrace(%q) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
}
