package udpnet

// The fault-injection middlewares (loss, delay, reorder, partition)
// were written against in-process channel transports. These are the
// cluster package's two composed-stack suites ported to run above a
// loopback socket mesh, proving the shim composes identically on both
// transports — the hostile-network tests are transport-agnostic, as
// the ISSUE's layer diagram demands: middlewares above, sockets below.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// TestFullMiddlewareStackThenHealOverUDP composes all four middlewares
// over a UDP mesh split into halves holding disjoint tokens: while the
// cut is up no run completes; healed, dissemination finishes through
// loss+delay+reorder and real sockets at once.
func TestFullMiddlewareStackThenHealOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	const n, k, d = 12, 12, 64
	cut := func(from, to int) bool { return (from < n/2) != (to < n/2) }
	var partitioned atomic.Bool

	stack := func() cluster.Transport {
		mesh, err := NewMesh(n, 8*n*n)
		if err != nil {
			t.Fatal(err)
		}
		var tr cluster.Transport = mesh
		tr = cluster.WithRule(tr, partition(func(from, to int) bool {
			return partitioned.Load() && cut(from, to)
		}))
		tr = cluster.WithReorder(tr, 0.3, 31)
		tr = cluster.WithDelay(tr, 0, 2, 32)
		tr = cluster.WithLoss(tr, 0.15, 33)
		return tr
	}

	// Permanent partition under the full stack: must time out incomplete.
	partitioned.Store(true)
	res, err := cluster.Run(context.Background(),
		cluster.Config{N: n, Seed: 2, Transport: stack(), Timeout: 400 * time.Millisecond},
		testTokens(k, d, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("completed across a permanent partition")
	}

	// Heal mid-run: the same stack must then deliver everything.
	partitioned.Store(true)
	heal := time.AfterFunc(100*time.Millisecond, func() { partitioned.Store(false) })
	defer heal.Stop()
	res, err = cluster.Run(context.Background(),
		cluster.Config{N: n, Seed: 2, Transport: stack(), Timeout: 20 * time.Second},
		testTokens(k, d, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete over UDP after the partition healed under loss+delay+reorder")
	}
	if res.Dropped == 0 {
		t.Error("no drops recorded with loss 0.15 plus a temporary partition")
	}
}

// TestStackedMiddlewaresDeliverOverUDP checks the composed stack at
// the transport level above real sockets: a blocked partition stops
// every packet no matter what loss/delay/reorder do above it, and once
// unblocked, every packet the stack accepts arrives intact at its
// addressee, at most once per send. Unlike the channel-transport
// original, payloads are real wire packets — the socket read loop
// parses every datagram and would reject raw bytes.
func TestStackedMiddlewaresDeliverOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	const sends, maxDelay = 400, 4
	stack := func(blocked *atomic.Bool) (cluster.Transport, *Mesh) {
		mesh, err := NewMesh(2, sends+1)
		if err != nil {
			t.Fatal(err)
		}
		tr := cluster.WithRule(mesh, partition(func(int, int) bool { return blocked.Load() }))
		tr = cluster.WithReorder(tr, 0.4, 41)
		tr = cluster.WithDelay(tr, 0, maxDelay, 42)
		tr = cluster.WithLoss(tr, 0.25, 43)
		return tr, mesh
	}
	pkt := func(i int) []byte { return wire.NewHello(0, i, wire.Hello{}).Marshal() }
	// drive sends count packets, eight a tick, the way a driver clocks
	// the stack, then ticks the delay queue dry.
	drive := func(tr cluster.Transport, count int) (accepted int) {
		tick := int64(0)
		for i := 0; i < count; i++ {
			if i%8 == 0 {
				tick++
				cluster.ObserveTick(tr, tick)
			}
			if tr.Send(0, 1, pkt(i)) {
				accepted++
			}
		}
		for i := 0; i < maxDelay; i++ {
			tick++
			cluster.ObserveTick(tr, tick)
		}
		return accepted
	}

	// Blocked cut: nothing may reach the socket once the delay layer has
	// released everything it held (the sleep is the kernel's, for a
	// datagram that should not exist).
	var blocked atomic.Bool
	blocked.Store(true)
	cutTr, cutMesh := stack(&blocked)
	defer cutTr.Close()
	drive(cutTr, 50)
	time.Sleep(20 * time.Millisecond)
	select {
	case raw := <-cutMesh.Recv(1):
		var p wire.Packet
		_ = wire.UnmarshalInto(&p, raw) // for the epoch only: the test fails either way
		t.Fatalf("packet %d delivered across a blocked partition", p.Env.Epoch)
	default:
	}

	// Healed cut: the stack delivers what it accepts, without
	// duplicates. (Loopback UDP does not duplicate; a kernel drop under
	// pressure is tolerated the same way the gossip protocol tolerates
	// it, by a small allowed shortfall.)
	var healed atomic.Bool
	tr, _ := stack(&healed)
	defer tr.Close()
	accepted := drive(tr, sends)
	deadline := time.After(5 * time.Second)
	counts := make(map[uint32]int)
	got := 0
	for got < accepted-1 { // reorder may park one packet forever
		select {
		case raw := <-tr.Recv(1):
			var p wire.Packet
			if err := wire.UnmarshalInto(&p, raw); err != nil {
				t.Fatalf("socket surfaced a corrupt packet: %v", err)
			}
			counts[p.Env.Epoch]++
			got++
		case <-deadline:
			t.Fatalf("only %d of %d accepted packets arrived", got, accepted)
		}
	}
	frac := float64(accepted) / sends
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("accepted fraction %.2f at loss 0.25, want ~0.75", frac)
	}
	for e, c := range counts {
		if c > 1 {
			t.Fatalf("packet %d delivered %d times through the stack", e, c)
		}
	}
}

// partition is the rule that drops, as cluster.DropAdversary, the
// packets for which blocked(from, to) is true.
func partition(blocked func(from, to int) bool) cluster.Rule {
	return cluster.Rule{Decide: func(from, to int, _ []byte, _ int64) cluster.Verdict {
		if blocked(from, to) {
			return cluster.Verdict{Act: cluster.Drop, Cause: cluster.DropAdversary}
		}
		return cluster.Verdict{}
	}}
}
