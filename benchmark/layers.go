package main

import "strings"

// perLayer turns a finished traced pass into the per-layer metrics of
// BENCHMARK.json. Three kinds of number meet here: counts and busy
// times taken in situ by the traced sample's decorators, kernel costs
// timed in isolation at the workload's shapes, and estimates — count ×
// kernel cost — whose shortfall against the untraced driver loop is the
// driver's residual. A metric the workload's path never reaches is 0.
//
// The quieter untraced sample of the pass is the base of every share
// and the source of the process accounting, so tracing cost pollutes
// neither; it only shows in trace.overhead_ratio.
func (s *set) perLayer() map[string]float64 {
	m := map[string]float64{}
	plain, traced, setup := quietest(s.runs), quietest(s.traced), quietest(s.setups)
	if s.kernels == nil || plain == nil || traced == nil || setup == nil {
		return m
	}
	kern := s.kernels.Kernels
	for name, v := range kern {
		m[name] = v
	}
	tr := traced.Trace
	if tr == nil {
		return m
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var events int64
	for name, n := range tr.Telemetry {
		if strings.HasPrefix(name, "events_") && name != "events_overwritten" {
			events += n
		}
	}
	dataOut, dataIn := float64(traced.PacketsOut), float64(traced.PacketsIn)
	acksOut, acksIn := float64(traced.AcksOut), float64(traced.AcksIn)
	hellosOut, hellosIn := float64(traced.HellosOut), float64(tr.Telemetry["events_recv_hello"])
	inserts, innovative := float64(tr.Telemetry["events_insert"]), float64(traced.Innovative)

	// cluster: start-up, membership, transport.
	m["cluster.ticks"] = float64(plain.Ticks)
	m["cluster.setup_share"] = ratio(setup.WallS, plain.WallS)
	m["cluster.hellos_out"] = hellosOut
	form := "dense"
	if s.w.Churn != "" {
		form = "mat" // the first crash materialises every view that hears of it
	}
	// One pick per packet sent, one mark per packet received, and per
	// hello received one introduction of every listed peer.
	membership := (dataOut+acksOut)*kern["cluster.view.pick_"+form+"_ns"] +
		(dataIn+acksIn+hellosIn)*kern["cluster.view.mark_"+form+"_ns"] +
		hellosIn*float64(plain.Live)*kern["cluster.view.introduce_ns"]
	m["cluster.membership_est_s"] = membership / 1e9
	m["cluster.transport.sends"] = float64(tr.Sends)
	m["cluster.transport.refused"] = float64(tr.Refused)
	m["cluster.transport.send_busy_s"] = tr.SendBusyS
	m["cluster.packets_out"] = dataOut
	m["cluster.packets_in"] = dataIn
	m["cluster.dropped"] = float64(traced.Dropped)
	m["cluster.innovative_ratio"] = ratio(innovative, dataIn)

	// rlnc / gf: every received data packet is one insert, every sent one
	// a fresh combination.
	coding := innovative*kern["rlnc.add_ns"] + (inserts-innovative)*kern["rlnc.add_dependent_ns"] + dataOut*kern["rlnc.combine_ns"]
	m["rlnc.inserts"] = inserts
	m["rlnc.innovative"] = innovative
	m["rlnc.coding_est_s"] = coding / 1e9
	m["rlnc.coding_share"] = ratio(coding/1e9, plain.WallS)

	// wire.
	codec := dataOut*kern["wire.append_ns"] + dataIn*kern["wire.unmarshal_ns"] +
		acksOut*kern["wire.ack_append_ns"] + acksIn*kern["wire.ack_unmarshal_ns"] +
		hellosOut*kern["wire.hello_append_ns"] + hellosIn*kern["wire.hello_unmarshal_ns"]
	m["wire.codec_est_s"] = codec / 1e9

	// The driver is what the layers do not explain. Receive-side channel
	// and ring operations have no in-situ timer and stay in the residual;
	// packets_in × cluster.chan.send_recv_ns bounds them. On the parallel
	// workloads (sharded, UDP) the estimates add up CPU across threads
	// while the loop is wall time, so the residual can go negative.
	residual := plain.LoopS - (membership+coding+codec)/1e9 - tr.SendBusyS
	m["cluster.loop_s"] = plain.LoopS
	m["cluster.driver_residual_s"] = residual
	m["cluster.driver_residual_share"] = ratio(residual, plain.WallS)

	// stream.
	m["stream.acks_out"] = acksOut
	m["stream.stale_ratio"] = ratio(float64(traced.Stale), dataIn)
	m["stream.max_span_bytes"] = float64(traced.MaxSpanBytes)
	m["stream.max_active_gens"] = float64(traced.MaxActiveGens)
	m["stream.tokens_per_tick"] = ratio(float64(plain.NodeTokens), float64(plain.Ticks))
	m["stream.source.calls"] = float64(tr.SourceCalls)
	m["stream.source.busy_s"] = tr.SourceBusyS
	m["stream.deliver.calls"] = float64(tr.DeliverCalls)

	// shard: two fanned-out phases per tick (drain, emit), and the serial
	// twin of the same input as the base of the speed-up.
	if s.w.Shards > 1 {
		m["shard.phases"] = 2 * float64(plain.Ticks)
		m["shard.barrier_est_s"] = m["shard.phases"] * kern["shard.run_ns"] / 1e9
	}
	if twin := quietest(s.twins); twin != nil {
		m["shard.speedup"] = ratio(twin.WallS, plain.WallS)
		m["shard.cpu_inflation"] = ratio(plain.UserS+plain.SysS, twin.UserS+twin.SysS)
	}

	// udpnet.
	if u := tr.UDP; u != nil {
		m["udpnet.datagrams"] = float64(u.Datagrams)
		m["udpnet.gossip"] = float64(u.Gossip)
		m["udpnet.drop_inbox_full"] = float64(u.DropInboxFull)
		m["udpnet.drop_rejected"] = float64(u.DropOversize + u.DropTruncated + u.DropVersion + u.DropType + u.DropMalformed)
		m["udpnet.write_errors"] = float64(u.WriteErrors)
		m["udpnet.send_busy_s"] = tr.SendBusyS
		m["udpnet.send_ns"] = ratio(tr.SendBusyS*1e9, float64(tr.Sends))
	}
	m["udpnet.sys_share"] = ratio(plain.SysS, plain.UserS+plain.SysS)

	// telemetry and the process.
	m["telemetry.events"] = float64(events)
	m["trace.overhead_ratio"] = ratio(traced.WallS, plain.WallS)
	host := s.speed()
	m["calib.speed_wall"] = host.wall
	m["calib.speed_cpu"] = host.cpu
	m["proc.user_s"] = plain.UserS
	m["proc.sys_s"] = plain.SysS
	m["proc.minor_faults"] = float64(plain.MinorFaults)
	m["proc.heap_highwater_mib"] = float64(plain.HeapHighWater) / (1 << 20)
	m["proc.gc_cycles"] = float64(plain.GCCycles)
	m["proc.gc_pause_ms"] = plain.GCPauseMs
	return m
}
