package stream

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// checkMarks holds a node's view to what an ack relies on: no mark
// passes gens, and once the node is bootstrapped its own mark is its
// watermark and the frontier is the least mark, some id at offset 0.
// Until then — a rejoined id, fresh at watermark 0, that its peers still
// know at its old one — a relayed frontier can stand above its own mark;
// such a node sends no ack.
func checkMarks(t *testing.T, nd *node) {
	t.Helper()
	v := &nd.marks
	for id := range nd.maxN {
		if w := v.frontier + v.offset(id); w > nd.gens {
			t.Fatalf("node %d: id %d at watermark %d with %d generations", nd.ID, id, w, nd.gens)
		}
	}
	if !nd.bootstrapped {
		return
	}
	if own := v.frontier + v.offset(nd.ID); own != nd.delivered {
		t.Fatalf("node %d: own mark %d, delivered %d, frontier %d", nd.ID, own, nd.delivered, v.frontier)
	}
	if v.least(nil) != 0 {
		t.Fatalf("node %d: every mark is above the frontier %d", nd.ID, v.frontier)
	}
}

// checkAck holds the ack a node just built in Tx, and its encoding raw,
// to the node's view: the planes are the view's own, and on the wire
// they decode to the same frontier and offsets.
func checkAck(t *testing.T, nd *node, raw []byte) {
	t.Helper()
	checkMarks(t, nd)
	ack, v := &nd.Tx.Ack, &nd.marks
	if int(ack.Frontier) != v.frontier || len(ack.Planes) != len(v.planes) ||
		len(ack.Planes) > 0 && &ack.Planes[0][0] != &v.planes[0][0] || len(ack.Peers) != 0 {
		t.Fatalf("node %d at tick %d: ack at frontier %d with %d planes and %d marks, view at %d with %d planes",
			nd.ID, nd.Now, ack.Frontier, len(ack.Planes), len(ack.Peers), v.frontier, len(v.planes))
	}
	var rx wire.Packet
	if err := wire.UnmarshalInto(&rx, raw); err != nil {
		t.Fatalf("node %d: own ack rejected: %v", nd.ID, err)
	}
	for id := range nd.maxN {
		if g, w := int(rx.Ack.Frontier)+offsetIn(rx.Ack.Planes, id), v.frontier+v.offset(id); g != w {
			t.Fatalf("node %d at tick %d: id %d reads %d on the wire, %d in the view", nd.ID, nd.Now, id, g, w)
		}
	}
}

// offsetIn reads id's offset out of planes trimmed by the codec: an id
// past their words is at offset 0.
func offsetIn(planes [][]uint64, id int) int {
	o := 0
	for l, p := range planes {
		if id/64 < len(p) {
			o |= int(p[id/64]>>(id%64)&1) << l
		}
	}
	return o
}

// checkSpanBytes holds a node's running span total to the walk of its
// live spans that noteMemory once made: the peak metrics sample it.
func checkSpanBytes(t *testing.T, nd *node) {
	t.Helper()
	walk := 0
	for _, gs := range nd.spans {
		walk += gs.span.MemoryBytes()
	}
	if nd.spanBytes != walk {
		t.Fatalf("node %d at tick %d: running span total %d, the live spans hold %d", nd.ID, nd.Now, nd.spanBytes, walk)
	}
}

// ackAudit is the outermost layer of a lockstep run: at every ack a node
// Sends it checks the node's state and the ack's bytes, before anything
// below may drop them, and at every packet the sender's running span
// total. The run is serial, so the sender is between its encode and its
// next step.
type ackAudit struct {
	cluster.Layer
	t     *testing.T
	nodes []*node
	// acks counts the acks checked; widths counts them by plane count.
	acks   int
	widths map[int]int
}

func (a *ackAudit) Send(from, to int, pkt []byte) bool {
	checkSpanBytes(a.t, a.nodes[from])
	if wire.Type(pkt[1]) == wire.TypeAck {
		nd := a.nodes[from]
		checkAck(a.t, nd, pkt)
		a.acks++
		a.widths[len(nd.marks.planes)]++
	}
	return a.Layer.Send(from, to, pkt)
}

// layeredRun streams cfg through the lockstep driver under the layer
// wrap puts over its transport, and returns each id's latest incarnation
// beside the result; wrap gets the slice the run fills in.
func layeredRun(t *testing.T, cfg Config, wrap func(nodes []*node, inner cluster.Transport) cluster.Transport) (*Result, []*node) {
	t.Helper()
	res := &Result{Nodes: make([]NodeMetrics, cfg.runtime().MaxNodes())}
	eng, err := cfg.engine(func(id int) *NodeMetrics { return &res.Nodes[id] })
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*node, len(res.Nodes))
	build := eng.New
	eng.New = func(nd *cluster.Node, joiner bool) cluster.Protocol {
		p := build(nd, joiner)
		nodes[nd.ID] = p.(*node)
		return p
	}
	inner := cfg.Transport
	if inner == nil {
		inner = cfg.DefaultTransport()
	}
	cfg.Transport = wrap(nodes, inner)
	res.Outcome, err = eng.Run(context.Background(), cfg.runtime())
	if err != nil {
		t.Fatal(err)
	}
	return res, nodes
}

// auditedRun streams cfg through the lockstep driver under an ackAudit
// and returns the audit, whose nodes are each id's latest incarnation.
func auditedRun(t *testing.T, cfg Config) (*Result, *ackAudit) {
	t.Helper()
	audit := &ackAudit{t: t, widths: map[int]int{}}
	res, _ := layeredRun(t, cfg, func(nodes []*node, inner cluster.Transport) cluster.Transport {
		audit.nodes, audit.Layer = nodes, cluster.Layer{Transport: inner}
		return audit
	})
	return res, audit
}

// TestAckIsMarks: at every ack of three lockstep runs — churnless,
// lossy, and under a crash/join/leave/restart/rejoin schedule, where
// bootstrap rewrites a node's own mark — the ack is the node's view, its
// planes aliased, and decodes to the same watermark for every id; the
// node's own mark is its watermark, and the frontier is the least mark. The runs reach views of several planes. At every packet,
// and at the end, a node's running span total is the sum over its live
// spans, so MaxSpanBytes reads what a walk of them would.
func TestAckIsMarks(t *testing.T) {
	sched, err := cluster.ParseChurn("crash:10:2,join:15:2,leave:20:1,restart:30:2,crash:32:1,rejoin:40:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		loss  float64
		churn *cluster.ChurnSchedule
	}{
		{"churnless", 0, nil},
		{"loss", 0.2, nil},
		{"churn", 0.1, sched},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				N: 16, K: 4, PayloadBits: 32, Window: 3, Generations: 12,
				Seed: 5, Lockstep: true, MaxTicks: 20000, Churn: tc.churn, SuspectTicks: 12,
			}
			cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), tc.loss, 7)
			res, audit := auditedRun(t, cfg)
			if !res.Completed {
				t.Fatalf("incomplete after %d ticks", res.Ticks)
			}
			if audit.widths[0] == 0 || audit.widths[2] == 0 {
				t.Fatalf("%d acks by plane count %v: want views of none and of two planes", audit.acks, audit.widths)
			}
			if tc.churn != nil && res.Nodes[16].StartGen == 0 {
				t.Fatalf("the first joiner bootstrapped at generation 0: its own mark was never rewritten")
			}
			for _, nd := range audit.nodes {
				if nd != nil {
					checkMarks(t, nd)
					checkSpanBytes(t, nd)
				}
			}
		})
	}
}

// TestAckMarksAboveGens: a forged ack whose watermarks pass the stream's
// length is clamped to gens before it is compared, so it raises each
// mark once, to gens, and reports a change once; a forged frontier past
// gens lifts the frontier to gens and no further. The view stays an ack
// of itself.
func TestAckMarksAboveGens(t *testing.T) {
	cfg := Config{N: 8, K: 4, PayloadBits: 32, Window: 2, Generations: 6, Seed: 2, Lockstep: true, MaxTicks: 3}
	_, audit := auditedRun(t, cfg)
	nd := audit.nodes[0]
	over := uint32(nd.gens + 9)
	// Offsets over 0 on ids 0, 2 and 5, up to 2³¹: 32 planes.
	planes := make([][]uint64, 32)
	for l := range planes {
		planes[l] = []uint64{0}
	}
	for _, id := range []int{0, 2} {
		for l := range planes {
			planes[l][0] |= uint64(over>>l&1) << id
		}
	}
	planes[31][0] |= 1 << 5
	forged := wire.Ack{Watermark: over, Planes: planes}
	if !nd.mergeAck(1, &forged) {
		t.Fatal("a forged ack above gens changed nothing")
	}
	for _, id := range []int{1, 2, 5} {
		if w := nd.marks.frontier + nd.marks.offset(id); w != nd.gens {
			t.Errorf("mark %d is %d after the forged ack, want gens %d", id, w, nd.gens)
		}
	}
	if own := nd.marks.frontier + nd.marks.offset(0); own != nd.delivered {
		t.Errorf("own mark %d after an ack that names it, delivered %d", own, nd.delivered)
	}
	if nd.mergeAck(1, &forged) {
		t.Error("the same forged ack changed the marks twice: compared before clamping")
	}
	nd.emitAckInto(&nd.Tx)
	raw, _ := nd.Tx.Encode(nil)
	checkAck(t, nd, raw)

	nd = audit.nodes[3]
	forged = wire.Ack{Watermark: over, Frontier: over, Planes: [][]uint64{{0xff}}}
	if !nd.mergeAck(1, &forged) || nd.marks.frontier != nd.gens || len(nd.marks.planes) != 0 {
		t.Fatalf("a forged frontier %d: frontier %d and %d planes, want gens %d and none", over, nd.marks.frontier, len(nd.marks.planes), nd.gens)
	}
	if nd.mergeAck(1, &forged) {
		t.Error("the same forged frontier changed the view twice")
	}
}

// ackPair is a sender whose view spans 32 generations over n ids, a
// receiver, and one ack round trip between them: emit, Encode,
// UnmarshalInto, merge.
func ackPair(n int) func() {
	cfg := Config{N: n, K: 32, PayloadBits: 256, Window: 4, Generations: 32}
	tx := newProtocol(&cluster.Node{ID: 0}, cfg, n, &NodeMetrics{}, false)
	rx := newProtocol(&cluster.Node{ID: 1}, cfg, n, &NodeMetrics{}, false)
	tx.setDelivered(3)
	for id := 1; id < n; id++ {
		tx.marks.raise(id, 1+id%cfg.Generations)
	}
	var got wire.Packet
	var buf []byte
	return func() {
		tx.emitAckInto(&tx.Tx)
		buf, _ = tx.Tx.Encode(buf[:0])
		if err := wire.UnmarshalInto(&got, buf); err != nil {
			panic(err)
		}
		rx.mergeAck(int(got.Env.Sender), &got.Ack)
	}
}

// TestAckRoundTripZeroAlloc: once its buffers are grown, an ack round
// trip over the whole id space allocates nothing.
func TestAckRoundTripZeroAlloc(t *testing.T) {
	trip := ackPair(192)
	trip()
	if n := testing.AllocsPerRun(50, trip); n != 0 {
		t.Errorf("ack round trip: %.1f allocations, want 0", n)
	}
}

// BenchmarkAckRoundTrip times one ack from emit to merge at the
// stream-lossy benchmark's n and at the largest n of ROADMAP's scaling
// row.
func BenchmarkAckRoundTrip(b *testing.B) {
	for _, n := range []int{192, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			trip := ackPair(n)
			trip()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				trip()
			}
		})
	}
}

// ackEcho is a layer that decodes every ack a node Sends and holds the
// decoded Ack to the one the node encoded, field by field.
type ackEcho struct {
	cluster.Layer
	t      *testing.T
	nodes  []*node
	rx     wire.Packet
	acks   int
	widths map[int]int
}

func (e *ackEcho) Send(from, to int, pkt []byte) bool {
	if wire.Type(pkt[1]) == wire.TypeAck {
		sent := &e.nodes[from].Tx.Ack
		if err := wire.UnmarshalInto(&e.rx, pkt); err != nil {
			e.t.Fatalf("node %d: own ack rejected: %v", from, err)
		}
		got := &e.rx.Ack
		same := got.Watermark == sent.Watermark && slices.Equal(got.Ranks, sent.Ranks) &&
			got.Frontier == sent.Frontier && len(got.Planes) == len(sent.Planes) && len(got.Peers) == 0
		for l := 0; same && l < len(got.Planes); l++ {
			// The codec trims the words past the last nonzero offset.
			p, q := got.Planes[l], sent.Planes[l]
			same = slices.Equal(p, q[:len(p)]) && !slices.ContainsFunc(q[len(p):], func(x uint64) bool { return x != 0 })
		}
		if !same {
			e.t.Fatalf("node %d at tick %d: sent %+v, decoded %+v", from, e.nodes[from].Now, *sent, *got)
		}
		e.acks++
		e.widths[len(got.Planes)]++
	}
	return e.Layer.Send(from, to, pkt)
}

// TestAckLosslessOnLiveTraffic: every ack a lockstep n = 192 stream
// sends under 20 % loss — the stream-lossy benchmark's shape, fewer
// generations — decodes to the Ack its sender encoded, watermark, rank
// runs, frontier and planes alike, over every plane count the run
// reaches.
func TestAckLosslessOnLiveTraffic(t *testing.T) {
	cfg := Config{N: 192, K: 8, PayloadBits: 32, Window: 4, Generations: 8, Seed: 1, Lockstep: true, MaxTicks: 100000}
	res := &Result{Nodes: make([]NodeMetrics, cfg.N)}
	eng, err := cfg.engine(func(id int) *NodeMetrics { return &res.Nodes[id] })
	if err != nil {
		t.Fatal(err)
	}
	echo := &ackEcho{t: t, nodes: make([]*node, cfg.N), widths: map[int]int{}}
	build := eng.New
	eng.New = func(nd *cluster.Node, joiner bool) cluster.Protocol {
		p := build(nd, joiner)
		echo.nodes[nd.ID] = p.(*node)
		return p
	}
	echo.Layer = cluster.Layer{Transport: cluster.WithLoss(cfg.DefaultTransport(), 0.2, 9)}
	cfg.Transport = echo
	if res.Outcome, err = eng.Run(context.Background(), cfg.runtime()); err != nil || !res.Completed {
		t.Fatalf("completed=%v err=%v", res.Completed, err)
	}
	var sent int64
	for _, m := range res.Nodes {
		sent += m.AcksOut
	}
	if int64(echo.acks) != sent || echo.widths[0] == 0 || echo.widths[2] == 0 {
		t.Fatalf("%d acks checked of %d sent, plane counts seen %v", echo.acks, sent, echo.widths)
	}
	t.Logf("%d acks decoded as sent; acks by plane count: %v", echo.acks, echo.widths)
}
