package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/gf"
	"repro/internal/rlnc"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/token"
	"repro/internal/udpnet"
	"repro/internal/wire"
)

// batch is how many operations a kernel closure performs per clock
// read, so the timer's own cost (two vDSO calls) stays under a percent
// of even the cheapest kernel.
const batch = 512

// perOp calls fn, which performs ops operations, until budget has
// passed, and returns the mean nanoseconds per operation.
func perOp(budget time.Duration, ops int, fn func()) float64 {
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < budget {
		fn()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls*ops)
}

// timeKernels times each layer's public functions in isolation, at the
// exact shapes the workload feeds them (node count, K, payload bits,
// window, loss rate), for at least budget each. A kernel the workload
// never reaches is left out and reads as 0 in the report. Keys are the
// per-layer metric names of BENCHMARK.json.
func timeKernels(w workload, seed int64, budget time.Duration) (map[string]float64, error) {
	k := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	viewKernels(w, rng, budget, k)
	transportKernels(w, seed, budget, k)
	fill := codingKernels(w, rng, budget, k)
	codecKernels(w, fill, budget, k)
	if w.Shards > 1 {
		ex := shard.New(w.maxN(), w.Shards)
		k["shard.run_ns"] = perOp(budget, batch, func() {
			for i := 0; i < batch; i++ {
				ex.Run(func(int, int, int) {})
			}
		})
	}
	rec := telemetry.New(telemetry.Config{Nodes: w.maxN(), EventCap: traceEventCap, MaxSamples: 1})
	n := w.maxN()
	k["telemetry.event_ns"] = perOp(budget, batch, func() {
		for i := 0; i < batch; i++ {
			rec.Event(i%n, int64(i), telemetry.KindRecv, 1, 2, 3)
		}
	})
	if w.UDP {
		if err := udpKernels(w, fill, budget, k); err != nil {
			return k, err
		}
	}
	return k, nil
}

// viewKernels covers cluster start-up and membership: the dense form a
// churnless run never leaves, and the materialised form a churn run
// enters at its first crash.
func viewKernels(w workload, rng *rand.Rand, budget time.Duration, k map[string]float64) {
	n := w.maxN()
	// What newMember does per spawned node: a fresh view, one Mark per
	// live peer.
	k["cluster.view.fill_ns_per_peer"] = perOp(budget, w.N, func() {
		v := cluster.NewView(0, n)
		for id := 0; id < w.N; id++ {
			v.Mark(id, 0)
		}
	})
	dense := cluster.NewView(0, n)
	dense.Fill(w.N, 0)
	mat := cluster.NewView(0, n)
	mat.Fill(w.N, 0)
	if w.N > 2 {
		mat.Remove(w.N / 2) // a mid-range removal is what materialises a view
		mat.Mark(w.N/2, 0)
	}
	for _, form := range []struct {
		name string
		v    *cluster.View
	}{{"dense", dense}, {"mat", mat}} {
		v := form.v
		k["cluster.view.mark_"+form.name+"_ns"] = perOp(budget, batch, func() {
			for i := 0; i < batch; i++ {
				v.Mark((i*7919+1)%w.N, 0)
			}
		})
		k["cluster.view.pick_"+form.name+"_ns"] = perOp(budget, batch, func() {
			for i := 0; i < batch; i++ {
				v.Pick(rng, 0)
			}
		})
	}
	if w.Churn == "" {
		return
	}
	// Hellos exist only under churn: each carries the sender's whole
	// view, and the receiver introduces every listed peer.
	var peers []uint32
	k["cluster.view.append_peers_ns"] = perOp(budget, 1, func() { peers = mat.AppendPeers(peers[:0]) })
	k["cluster.view.introduce_ns"] = perOp(budget, batch, func() {
		for i := 0; i < batch; i++ {
			mat.Introduce((i*7919+1)%w.N, 0)
		}
	})
}

func transportKernels(w workload, seed int64, budget time.Duration, k map[string]float64) {
	pkt := make([]byte, 64)
	ring := cluster.NewBufRing(cluster.DefaultRingCap)
	k["cluster.ring.get_put_ns"] = perOp(budget, batch, func() {
		for i := 0; i < batch; i++ {
			ring.Put(pkt)
			ring.Get()
		}
	})
	if w.UDP {
		return // no channel transport on the socket path
	}
	k["cluster.chan.new_s"] = perOp(budget, 1, func() {
		cluster.NewChanTransport(w.maxN(), w.inboxBuffer()).Close()
	}) / 1e9
	const chanSlotBytes = 24 // one []byte header per inbox slot
	k["cluster.chan.buffer_mib"] = float64(w.maxN()) * float64(w.inboxBuffer()) * chanSlotBytes / (1 << 20)

	ch := cluster.NewChanTransport(2, 64)
	defer ch.Close()
	inbox := ch.Recv(1)
	k["cluster.chan.send_recv_ns"] = perOp(budget, batch, func() {
		for i := 0; i < batch; i++ {
			ch.Send(0, 1, pkt)
			<-inbox
		}
	})
	if w.Loss > 0 {
		lossy := cluster.WithLoss(ch, w.Loss, seed+103)
		k["cluster.loss.send_ns"] = perOp(budget, batch, func() {
			for i := 0; i < batch; i++ {
				if lossy.Send(0, 1, pkt) {
					<-inbox
				}
			}
		})
	}
}

// codingKernels times rlnc and gf over one node's whole fill, rank 0 to
// K: the arrival sequence is K innovative combinations of the full
// source span, each followed by one dependent combination of what the
// node holds by then, so every per-op figure is the average over the
// ranks a real node passes through. It returns the innovative sequence
// for the codec kernels to marshal.
func codingKernels(w workload, rng *rand.Rand, budget time.Duration, k map[string]float64) []rlnc.Coded {
	bits := token.UIDBits + w.D
	src := rlnc.NewSpan(w.K, bits)
	for j, t := range token.RandomSet(w.K, w.D, rng) {
		src.Add(rlnc.Encode(j, w.K, cluster.TokenVec(t)))
	}
	span := rlnc.NewSpan(w.K, bits)
	var fresh, stale []rlnc.Coded
	for span.Rank() < w.K {
		c, _ := src.RandomCombination(rng)
		if !span.Add(c) {
			continue
		}
		d, _ := span.RandomCombination(rng)
		fresh, stale = append(fresh, c), append(stale, d)
	}
	k["gf.span_bytes"] = float64(span.MemoryBytes())

	fill := perOp(budget, w.K, func() {
		span.Reset()
		for _, c := range fresh {
			span.Add(c)
		}
	})
	withStale := perOp(budget, w.K, func() {
		span.Reset()
		for i, c := range fresh {
			span.Add(c)
			span.Add(stale[i])
		}
	})
	var dst rlnc.Coded
	withCombine := perOp(budget, w.K, func() {
		span.Reset()
		for _, c := range fresh {
			span.Add(c)
			span.RandomCombinationInto(&dst, rng)
		}
	})
	k["rlnc.add_ns"] = fill
	k["rlnc.add_dependent_ns"] = max(withStale-fill, 0)
	k["rlnc.combine_ns"] = max(withCombine-fill, 0)

	mat := gf.NewBitMatrix(w.K + bits)
	k["gf.insert_ns"] = perOp(budget, w.K, func() {
		mat.Reset()
		for _, c := range fresh {
			mat.Insert(c.Vec)
		}
	})
	a, b := fresh[0].Vec.Clone(), fresh[len(fresh)-1].Vec
	kib := float64((w.K+bits+7)/8) / 1024
	k["gf.xor_ns_per_kib"] = perOp(budget, batch, func() {
		for i := 0; i < batch; i++ {
			a.Xor(b)
		}
	}) / kib
	return fresh
}

// codecKernels marshals and parses the three packet kinds at the sizes
// the workload sends: coded data at (K, d); acks with one rank entry per
// window slot and one watermark per node; hellos listing every node.
func codecKernels(w workload, fill []rlnc.Coded, budget time.Duration, k map[string]float64) {
	timePair := func(name string, p wire.Packet) []byte {
		buf := p.AppendTo(nil)
		k["wire."+name+"append_ns"] = perOp(budget, batch, func() {
			for i := 0; i < batch; i++ {
				buf = p.AppendTo(buf[:0])
			}
		})
		var rx wire.Packet
		k["wire."+name+"unmarshal_ns"] = perOp(budget, batch, func() {
			for i := 0; i < batch; i++ {
				if err := wire.UnmarshalInto(&rx, buf); err != nil {
					panic(err) // the codec rejected its own output
				}
			}
		})
		return buf
	}
	data := wire.NewCoded(1, 1, fill[len(fill)/2])
	raw := timePair("", data)
	k["wire.bytes_per_packet"] = float64(len(raw))
	k["wire.header_overhead_ratio"] = 1 - float64(data.Bits())/float64(8*len(raw))

	var rx wire.Packet
	ring := cluster.NewBufRing(cluster.DefaultRingCap)
	k["cluster.decode_recycle_ns"] = perOp(budget, batch, func() {
		for i := 0; i < batch; i++ {
			cluster.DecodeRecycle(&rx, ring, raw)
		}
	})
	if w.Stream {
		var ack wire.Ack
		for g := 0; g < w.Window; g++ {
			ack.Ranks = append(ack.Ranks, wire.GenRank{Gen: uint32(g), Rank: uint32(w.K / 2)})
		}
		for id := 0; id < w.N; id++ {
			ack.Peers = append(ack.Peers, wire.PeerMark{Node: uint32(id), Watermark: 1})
		}
		timePair("ack_", wire.NewAck(1, 1, ack))
	}
	if w.Churn != "" {
		var hello wire.Hello
		for id := 0; id < w.N; id++ {
			hello.Peers = append(hello.Peers, uint32(id))
		}
		timePair("hello_", wire.NewHello(1, 0, hello))
	}
}

// udpKernels measures the socket path alone: mesh construction, and a
// closed loop between two loopback sockets with pairWindow datagrams
// outstanding, at the workload's data packet and at the smallest packet
// the codec can carry (one token, one payload bit), where per-packet
// cost is all there is. The traffic crosses the host's loopback
// interface, not a link.
func udpKernels(w workload, fill []rlnc.Coded, budget time.Duration, k map[string]float64) error {
	start := time.Now()
	mesh, err := udpnet.NewMesh(w.N, 0)
	if err != nil {
		return fmt.Errorf("mesh of %d: %w", w.N, err)
	}
	mesh.Close()
	k["udpnet.mesh_new_s"] = time.Since(start).Seconds()

	tiny := rlnc.Encode(0, 1, gf.NewBitVec(1))
	pps, drops, err := udpPair(wire.NewCoded(0, 0, fill[len(fill)/2]).Marshal(), budget)
	if err != nil {
		return err
	}
	ppsMin, _, err := udpPair(wire.NewCoded(0, 0, tiny).Marshal(), budget)
	if err != nil {
		return err
	}
	k["udpnet.pair_pps"], k["udpnet.pair_drop_ratio"], k["udpnet.pair_pps_min"] = pps, drops, ppsMin
	return nil
}

// pairWindow is the closed loop's client count: the datagrams in flight
// between the two sockets, well under the 1024-slot inbox.
const pairWindow = 64

func udpPair(pkt []byte, budget time.Duration) (pps, dropRatio float64, err error) {
	mesh, err := udpnet.NewMesh(2, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("mesh of 2: %w", err)
	}
	defer mesh.Close()
	inbox := mesh.Recv(1)
	// A Send that returns true consumes its buffer, and every received
	// buffer is the receiver's to keep, so received buffers (same bytes)
	// feed the next sends.
	var free [][]byte
	sent, got, lost, inflight := 0, 0, 0, 0
	stall := time.NewTimer(time.Hour)
	defer stall.Stop()
	start := time.Now()
	for time.Since(start) < budget {
		for inflight < pairWindow {
			var buf []byte
			if n := len(free); n > 0 {
				buf, free = free[n-1], free[:n-1]
			} else {
				buf = append([]byte(nil), pkt...)
			}
			sent++
			if mesh.Send(0, 1, buf) {
				inflight++
			} else {
				lost++
			}
		}
		stall.Reset(20 * time.Millisecond)
		select {
		case b := <-inbox:
			got++
			inflight--
			free = append(free, b)
		case <-stall.C:
			// Nothing arrived for far longer than a loopback round trip:
			// what was in flight is gone.
			lost += inflight
			inflight = 0
		}
	}
	if got == 0 {
		return 0, 0, fmt.Errorf("udp pair delivered none of %d datagrams", sent)
	}
	return float64(got) / time.Since(start).Seconds(), float64(lost) / float64(sent), nil
}
