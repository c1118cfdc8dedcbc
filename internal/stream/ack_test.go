package stream

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// refAck is an ack's peer list built the way it was before marks became
// the list: every nonzero mark, the node's own read from delivered.
func refAck(nd *node) []wire.PeerMark {
	var ref []wire.PeerMark
	for i, pm := range nd.marks {
		w := int(pm.Watermark)
		if i == nd.ID {
			w = nd.delivered
		}
		if w > 0 {
			ref = append(ref, wire.PeerMark{Node: uint32(i), Watermark: uint32(w)})
		}
	}
	return ref
}

// checkMarks holds a node's marks to what an ack relies on: marks[i]
// names i, the node's own mark is its watermark, no mark passes gens,
// and unknown counts the zero marks.
func checkMarks(t *testing.T, nd *node) {
	t.Helper()
	zeros := 0
	for i, pm := range nd.marks {
		if pm.Node != uint32(i) || int(pm.Watermark) > nd.gens {
			t.Fatalf("node %d: marks[%d] = %+v with %d generations", nd.ID, i, pm, nd.gens)
		}
		if pm.Watermark == 0 {
			zeros++
		}
	}
	if own := int(nd.marks[nd.ID].Watermark); own != nd.delivered {
		t.Fatalf("node %d: own mark %d, delivered %d", nd.ID, own, nd.delivered)
	}
	if nd.unknown != zeros {
		t.Fatalf("node %d: unknown %d, %d zero marks", nd.ID, nd.unknown, zeros)
	}
}

// checkAck holds the ack a node just built in Tx, and its encoding raw,
// to the reference list.
func checkAck(t *testing.T, nd *node, raw []byte) {
	t.Helper()
	checkMarks(t, nd)
	ref := refAck(nd)
	if got := nd.Tx.Ack.Peers; !slices.Equal(got, ref) {
		t.Fatalf("node %d at tick %d: ack lists %v, reference %v", nd.ID, nd.Now, got, ref)
	}
	if aliased := len(nd.Tx.Ack.Peers) > 0 && &nd.Tx.Ack.Peers[0] == &nd.marks[0]; aliased != (nd.unknown == 0) {
		t.Fatalf("node %d: ack aliases marks %v with %d marks unknown", nd.ID, aliased, nd.unknown)
	}
	var rx wire.Packet
	if err := wire.UnmarshalInto(&rx, raw); err != nil || !slices.Equal(rx.Ack.Peers, ref) {
		t.Fatalf("node %d: ack on the wire lists %v (err %v), reference %v", nd.ID, rx.Ack.Peers, err, ref)
	}
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
	// aliased and copied count the acks sent each way.
	aliased, copied int
}

func (a *ackAudit) Send(from, to int, pkt []byte) bool {
	checkSpanBytes(a.t, a.nodes[from])
	if wire.Type(pkt[1]) == wire.TypeAck {
		nd := a.nodes[from]
		checkAck(a.t, nd, pkt)
		if nd.unknown == 0 {
			a.aliased++
		} else {
			a.copied++
		}
	}
	return a.Layer.Send(from, to, pkt)
}

// auditedRun streams cfg through the lockstep driver under an ackAudit
// and returns the audit, whose nodes are each id's latest incarnation.
func auditedRun(t *testing.T, cfg Config) (*Result, *ackAudit) {
	t.Helper()
	res := &Result{Nodes: make([]NodeMetrics, cfg.runtime().MaxNodes())}
	eng, err := cfg.engine(func(id int) *NodeMetrics { return &res.Nodes[id] })
	if err != nil {
		t.Fatal(err)
	}
	audit := &ackAudit{t: t, nodes: make([]*node, len(res.Nodes))}
	build := eng.New
	eng.New = func(nd *cluster.Node, joiner bool) cluster.Protocol {
		p := build(nd, joiner)
		audit.nodes[nd.ID] = p.(*node)
		return p
	}
	inner := cfg.Transport
	if inner == nil {
		inner = cfg.DefaultTransport()
	}
	audit.Layer = cluster.Layer{Transport: inner}
	cfg.Transport = audit
	res.Outcome, err = eng.Run(context.Background(), cfg.runtime())
	if err != nil {
		t.Fatal(err)
	}
	return res, audit
}

// TestAckIsMarks: at every ack of three lockstep runs — churnless,
// lossy, and under a crash/join/leave/restart schedule, where bootstrap
// rewrites a node's own mark — the list on the wire is the one built the
// old way, marks[ID] is delivered and unknown counts the zero marks. The
// runs are long enough that acks go out both ways: copied while some
// mark is unknown, aliased after. At every packet, and at the end, a
// node's running span total is the sum over its live spans, so
// MaxSpanBytes reads what a walk of them would.
func TestAckIsMarks(t *testing.T) {
	sched, err := cluster.ParseChurn("crash:10:2,join:15:2,leave:20:1,restart:30:2")
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
			if audit.aliased == 0 || audit.copied == 0 {
				t.Fatalf("%d acks aliased marks and %d copied them: want both", audit.aliased, audit.copied)
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
// mark once, to gens, and reports a change once; the marks stay an ack
// of the reference list.
func TestAckMarksAboveGens(t *testing.T) {
	cfg := Config{N: 8, K: 4, PayloadBits: 32, Window: 2, Generations: 6, Seed: 2, Lockstep: true, MaxTicks: 3}
	_, audit := auditedRun(t, cfg)
	nd := audit.nodes[0]
	over := uint32(nd.gens + 9)
	forged := wire.Ack{Watermark: over, Peers: []wire.PeerMark{{Node: 0, Watermark: over}, {Node: 2, Watermark: over}, {Node: 5, Watermark: 1 << 31}}}
	before := nd.unknown
	if !nd.mergeAck(1, &forged) {
		t.Fatal("a forged ack above gens changed nothing")
	}
	for _, id := range []int{1, 2, 5} {
		if w := int(nd.marks[id].Watermark); w != nd.gens {
			t.Errorf("mark %d is %d after the forged ack, want gens %d", id, w, nd.gens)
		}
	}
	if nd.mergeAck(1, &forged) {
		t.Error("the same forged ack changed the marks twice: compared before clamping")
	}
	if nd.unknown > before {
		t.Errorf("unknown rose from %d to %d", before, nd.unknown)
	}
	nd.emitAckInto(&nd.Tx)
	raw, _ := nd.Tx.Encode(nil)
	checkAck(t, nd, raw)
}

// ackPair is a sender whose every mark is known, a receiver, and one ack
// round trip between them: emit, Encode, UnmarshalInto, merge.
func ackPair(n int) func() {
	cfg := Config{N: n, K: 32, PayloadBits: 256, Window: 4, Generations: 32}
	tx := newProtocol(&cluster.Node{ID: 0}, cfg, n, &NodeMetrics{}, false)
	rx := newProtocol(&cluster.Node{ID: 1}, cfg, n, &NodeMetrics{}, false)
	tx.setDelivered(3)
	for id := 1; id < n; id++ {
		tx.mergeMark(id, uint32(1+id%cfg.Generations))
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
		if got.Watermark != sent.Watermark || !slices.Equal(got.Ranks, sent.Ranks) || !slices.Equal(got.Peers, sent.Peers) {
			e.t.Fatalf("node %d at tick %d: sent %+v, decoded %+v", from, e.nodes[from].Now, *sent, *got)
		}
		e.acks++
		lo, hi := ^uint32(0), uint32(0)
		for _, pm := range got.Peers {
			lo, hi = min(lo, pm.Watermark), max(hi, pm.Watermark)
		}
		if len(got.Peers) > 0 {
			e.widths[bits.Len32(hi-lo)]++
		}
	}
	return e.Layer.Send(from, to, pkt)
}

// TestAckLosslessOnLiveTraffic: every ack a lockstep n = 192 stream
// sends under 20 % loss — the stream-lossy benchmark's shape, fewer
// generations — decodes to the Ack its sender encoded, watermark, rank
// runs and packed watermark vector alike, over every width the run
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
		t.Fatalf("%d acks checked of %d sent, widths seen %v", echo.acks, sent, echo.widths)
	}
	t.Logf("%d acks decoded as sent; acks by width: %v", echo.acks, echo.widths)
}
