// Benchmarks regenerating the repository's experiments E1..E10 (one per
// "table/figure"; see DESIGN.md) at benchmark-friendly sizes, plus
// micro-benchmarks of the coding hot paths. The experiment benchmarks
// report the quantity each theorem bounds (rounds, ratios, stall
// fractions) via b.ReportMetric, so `go test -bench=.` both times the
// kernels and re-checks the shapes.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/central"
	"repro/internal/cluster"
	"repro/internal/count"
	"repro/internal/derand"
	"repro/internal/dissem"
	"repro/internal/dynnet"
	"repro/internal/exp"
	"repro/internal/forwarding"
	"repro/internal/gf"
	"repro/internal/graph"
	"repro/internal/rlnc"
	"repro/internal/sim"
	"repro/internal/stable"
	"repro/internal/stream"
	"repro/internal/token"
	"repro/internal/wire"
)

// BenchmarkE1IndexedBroadcast times one Lemma 5.3 run (n = k = 64) and
// reports rounds-to-decode; the theorem predicts Theta(n + k).
func BenchmarkE1IndexedBroadcast(b *testing.B) {
	b.ReportAllocs()
	const n, d = 64, 8
	rounds := 0
	for i := 0; i < b.N; i++ {
		adv := adversary.NewRandomConnected(n, n/2, int64(i))
		r, err := exp.RunIndexedUntilDecoded(n, n, d, adv, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		rounds = r
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(rounds)/float64(2*64), "rounds/(n+k)")
}

// BenchmarkE2SmallTokens times the E2 pair (forwarding vs coding at
// n = k = 64) and reports the round ratio; Theorem 2.3 says it grows
// with n.
func BenchmarkE2SmallTokens(b *testing.B) {
	b.ReportAllocs()
	const n, d, budget = 64, 8, 512
	var fwd, cod int
	for i := 0; i < b.N; i++ {
		dist := token.OnePerNode(n, d, rand.New(rand.NewSource(int64(i))))
		f, err := forwarding.RunPipelinedFlood(dist, n, budget, d, adversary.NewRandomConnected(n, n/2, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := dissem.GreedyForward(dist, dissem.Params{B: budget, D: d, Seed: int64(i)},
			adversary.NewRandomConnected(n, n/2, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		fwd, cod = f, res.Rounds
	}
	b.ReportMetric(float64(fwd), "fwd-rounds")
	b.ReportMetric(float64(cod), "coded-rounds")
	b.ReportMetric(float64(fwd)/float64(cod), "fwd/coded")
}

// BenchmarkE3MessageSize times greedy-forward at two budgets (n = k =
// 64) and reports the round ratio across a 2x budget step; Theorem 2.3
// predicts ~4x while the quadratic term dominates.
func BenchmarkE3MessageSize(b *testing.B) {
	b.ReportAllocs()
	const n, d = 64, 8
	var r96, r192 int
	for i := 0; i < b.N; i++ {
		for _, cfg := range []struct {
			budget int
			out    *int
		}{{96, &r96}, {192, &r192}} {
			dist := token.OnePerNode(n, d, rand.New(rand.NewSource(int64(i))))
			res, err := dissem.GreedyForward(dist, dissem.Params{B: cfg.budget, D: d, Seed: int64(i)},
				adversary.NewRandomConnected(n, n/2, int64(i)))
			if err != nil {
				b.Fatal(err)
			}
			*cfg.out = res.Rounds
		}
	}
	b.ReportMetric(float64(r96), "rounds-b96")
	b.ReportMetric(float64(r192), "rounds-b192")
	b.ReportMetric(float64(r96)/float64(r192), "speedup-2x-b")
}

// BenchmarkE4GreedyVsPriority times both Section 7 algorithms at
// n = k = 48, b = 256.
func BenchmarkE4GreedyVsPriority(b *testing.B) {
	b.ReportAllocs()
	const n, d, budget = 48, 8, 256
	var g, p int
	for i := 0; i < b.N; i++ {
		dist := token.OnePerNode(n, d, rand.New(rand.NewSource(int64(i))))
		gr, err := dissem.GreedyForward(dist, dissem.Params{B: budget, D: d, Seed: int64(i)},
			adversary.NewRandomConnected(n, n/2, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		pr, err := dissem.PriorityForward(dist, dissem.Params{B: budget, D: d, Seed: int64(i)},
			adversary.NewRandomConnected(n, n/2, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		g, p = gr.Rounds, pr.Rounds
	}
	b.ReportMetric(float64(g), "greedy-rounds")
	b.ReportMetric(float64(p), "priority-rounds")
}

// BenchmarkE5TStable times the E5 throughput kernel at T = 96 (n = 48):
// one full share-pass-share coded broadcast from a single source, with
// the per-window geometry of Lemma 8.1 (blocks, payload ~ T), against
// the batched forwarding baseline on a matched token workload. Reported
// metrics are bits delivered per round for both.
func BenchmarkE5TStable(b *testing.B) {
	b.ReportAllocs()
	const (
		n, budget, T = 48, 160, 96
		kFwd, d      = 64, 8
	)
	geo := stable.ScaledGeometry(budget, T)
	blocks, payload := geo.Blocks, geo.Payload
	var codThroughput, fwdThroughput float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		initial := make([][]rlnc.Coded, n)
		for j := 0; j < blocks; j++ {
			initial[0] = append(initial[0], rlnc.Encode(j, blocks, gf.RandomBitVec(payload, rng.Uint64)))
		}
		rngs := make([]*rand.Rand, n)
		for j := range rngs {
			rngs[j] = rand.New(rand.NewSource(int64(i*1000 + j)))
		}
		tadv := adversary.NewTStable(adversary.NewRandomConnected(n, n, int64(i)), T)
		s := dynnet.NewSession(n, tadv, dynnet.Config{BitBudget: budget})
		if _, err := stable.Broadcast(s, tadv, geo, initial, rngs); err != nil {
			b.Fatal(err)
		}
		codThroughput = float64(blocks*payload) / float64(s.Metrics().Rounds)

		dist := token.AtOne(n, kFwd, d, rand.New(rand.NewSource(int64(i))))
		f, err := stable.RunFlood(dist, kFwd, budget, d, T,
			adversary.NewTStable(adversary.NewRandomConnected(n, n, int64(i)), T))
		if err != nil {
			b.Fatal(err)
		}
		fwdThroughput = float64(kFwd*(token.UIDBits+d)) / float64(f)
	}
	b.ReportMetric(codThroughput, "coded-bits/round")
	b.ReportMetric(fwdThroughput, "fwd-bits/round")
}

// BenchmarkE6Gathering times the random-forward primitive (n = k = 64)
// and reports the gathered count against Lemma 7.2's sqrt(ck).
func BenchmarkE6Gathering(b *testing.B) {
	b.ReportAllocs()
	const n, d, c = 64, 8, 4
	gathered := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		dist := token.OnePerNode(n, d, rng)
		sets := make([]*token.Set, n)
		rngs := make([]*rand.Rand, n)
		for j := range sets {
			sets[j] = token.NewSet()
			for _, tk := range dist[j] {
				sets[j].Add(tk)
			}
			rngs[j] = rand.New(rand.NewSource(int64(i*1000 + j)))
		}
		s := dynnet.NewSession(n, adversary.NewRandomConnected(n, n, int64(i)), dynnet.Config{})
		res, err := forwarding.RandomForward(s, sets, nil, c, 4*n, rngs)
		if err != nil {
			b.Fatal(err)
		}
		gathered = res.Count
	}
	b.ReportMetric(float64(gathered), "gathered")
	b.ReportMetric(16 /* sqrt(4*64) */, "lemma7.2-bound")
}

// BenchmarkE7Counting times the counting application at n = 32.
func BenchmarkE7Counting(b *testing.B) {
	b.ReportAllocs()
	const n, budget = 32, 1024
	var res count.Result
	for i := 0; i < b.N; i++ {
		r, err := count.Run(n, budget, adversary.NewRandomConnected(n, n/2, int64(i)), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.TotalRounds), "total-rounds")
	b.ReportMetric(float64(res.TotalRounds)/float64(res.FinalPhaseRounds), "total/final")
}

// BenchmarkE8FieldSize times the omniscient-adversary kernel over GF(2)
// and F_257 and reports both stall fractions (Theorem 6.1's separation).
func BenchmarkE8FieldSize(b *testing.B) {
	b.ReportAllocs()
	const n, pe = 12, 4
	var frac2, fracBig float64
	for i := 0; i < b.N; i++ {
		_, s2, r2, err := derand.RunOmniscientBroadcast(gf.GF2{}, n, pe, 20*n, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		_, sB, rB, err := derand.RunOmniscientBroadcast(gf.MustPrime(257), n, pe, 20*n, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		frac2 = float64(s2) / float64(crossingRounds(r2))
		fracBig = float64(sB) / float64(crossingRounds(rB))
	}
	b.ReportMetric(frac2, "stall-frac-GF2")
	b.ReportMetric(fracBig, "stall-frac-F257")
}

// crossingRounds guards against division by zero when the adversary
// never needed a crossing edge.
func crossingRounds(r int) int {
	if r < 1 {
		return 1
	}
	return r
}

// BenchmarkE9EndGame times the Section 5.2 end-game decode at k = 256.
func BenchmarkE9EndGame(b *testing.B) {
	b.ReportAllocs()
	const k, d = 256, 8
	for i := 0; i < b.N; i++ {
		if !exp.EndgameCodedDecodes(k, d, int64(i)) {
			b.Fatal("end-game decode failed")
		}
	}
	b.ReportMetric(1, "coded-rounds")
	b.ReportMetric(float64(k)/2, "fwd-expected-rounds")
}

// BenchmarkE10Centralized times the Corollary 2.6 centralized coding
// run (b = d = 8, n = k = 64) and reports rounds/n (predicted O(1)).
func BenchmarkE10Centralized(b *testing.B) {
	b.ReportAllocs()
	const n, d = 64, 8
	rounds := 0
	for i := 0; i < b.N; i++ {
		r, err := central.Run(n, n, d, adversary.NewRandomConnected(n, n/2, int64(i)), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		rounds = r
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(rounds)/n, "rounds/n")
}

// BenchmarkE11GossipUnderLoss times one lockstep cluster trial pair
// (coded vs store-and-forward gossip, n = k = 24, 30% loss) and reports
// both tick counts; the coded runtime must stay well ahead (E11).
func BenchmarkE11GossipUnderLoss(b *testing.B) {
	b.ReportAllocs()
	const n, k, d, loss = 24, 24, 64, 0.3
	ctx := context.Background()
	var codedTicks, fwdTicks int
	for i := 0; i < b.N; i++ {
		toks := token.RandomSet(k, d, rand.New(rand.NewSource(int64(i))))
		for _, c := range []struct {
			mode cluster.Mode
			out  *int
		}{{cluster.Coded, &codedTicks}, {cluster.Forward, &fwdTicks}} {
			cfg := cluster.Config{N: n, Fanout: 2, Mode: c.mode, Seed: int64(i), Lockstep: true}
			cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(0), loss, int64(i)+77)
			res, err := cluster.Run(ctx, cfg, toks)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatalf("%v gossip incomplete", c.mode)
			}
			*c.out = res.Ticks
		}
	}
	b.ReportMetric(float64(codedTicks), "coded-ticks")
	b.ReportMetric(float64(fwdTicks), "fwd-ticks")
	b.ReportMetric(float64(fwdTicks)/float64(codedTicks), "fwd/coded")
}

// BenchmarkE12StreamWindows regenerates the E12 separation at
// benchmark size: the same lossy token stream at W = 1 (sequential)
// and W = 4 (pipelined), reporting sustained tokens/tick for both.
func BenchmarkE12StreamWindows(b *testing.B) {
	b.ReportAllocs()
	const n, k, d, gens, loss = 16, 8, 64, 8, 0.3
	ctx := context.Background()
	var seqTicks, pipeTicks int
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			window int
			out    *int
		}{{1, &seqTicks}, {4, &pipeTicks}} {
			cfg := stream.Config{
				N: n, K: k, PayloadBits: d, Window: c.window, Generations: gens,
				Seed: int64(i), Lockstep: true, MaxTicks: 500000,
			}
			cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), loss, int64(i)+77)
			res, err := stream.Run(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatalf("W=%d stream incomplete", c.window)
			}
			*c.out = res.Ticks
		}
	}
	tokens := float64(k * gens)
	b.ReportMetric(tokens/float64(seqTicks), "seq-tok/tick")
	b.ReportMetric(tokens/float64(pipeTicks), "pipe-tok/tick")
	b.ReportMetric(float64(seqTicks)/float64(pipeTicks), "pipe/seq-speedup")
}

// BenchmarkChurnSteadyState times the membership-aware cluster runtime
// end to end: a lockstep coded gossip run through a full churn
// schedule — crash, two joins, a graceful leave, a persisted restart —
// under 20% loss, with every live node decode-verified. It is the
// allocation gate for the dynamic-membership layer: views, hello
// traffic and the churn drivers must not reintroduce steady-state
// allocations into the emission pipeline.
func BenchmarkChurnSteadyState(b *testing.B) {
	b.ReportAllocs()
	const n, k, d, loss = 16, 16, 64, 0.2
	sched, err := cluster.ParseChurn("crash:8:1,join:10:2,leave:16:1,restart:22:1")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var ticks, live int
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{N: n, Fanout: 2, Seed: int64(i), Lockstep: true, MaxTicks: 200000, Churn: sched}
		cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(0), loss, int64(i)+77)
		res, err := cluster.Run(ctx, cfg, token.RandomSet(k, d, rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("churn gossip incomplete")
		}
		ticks = res.Ticks
		live = res.FinalLive
	}
	b.ReportMetric(float64(ticks), "ticks")
	b.ReportMetric(float64(live), "live-nodes")
}

// BenchmarkStreamSustained times the pipelined streaming runtime end to
// end (lockstep, lossless) and reports the three sustained-throughput
// figures the streaming layer is accountable for: wall-clock tokens
// per second, protocol bits per delivered stream token, and peak span
// memory held per node.
func BenchmarkStreamSustained(b *testing.B) {
	b.ReportAllocs()
	const n, k, d, gens, w = 16, 16, 128, 8, 4
	ctx := context.Background()
	var ticks int
	var bitsPerTok, spanPeak float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := stream.Run(ctx, stream.Config{
			N: n, K: k, PayloadBits: d, Window: w, Generations: gens,
			Seed: int64(i), Lockstep: true, MaxTicks: 500000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("stream incomplete")
		}
		ticks = res.Ticks
		bitsPerTok = float64(res.BitsOut) / float64(k*gens)
		spanPeak = float64(res.MaxSpanBytes)
	}
	elapsed := time.Since(start).Seconds()
	b.ReportMetric(float64(k*gens*b.N)/elapsed, "tokens/sec")
	b.ReportMetric(float64(k*gens)/float64(ticks), "tokens/tick")
	b.ReportMetric(bitsPerTok, "bits/token")
	b.ReportMetric(spanPeak, "span-bytes/node")
}

// BenchmarkStreamWindowSweep exposes the window axis as b.Run
// sub-benchmarks so each window's allocation count is reported
// separately (BenchmarkStreamWindowSweep/W=4). W=1 is the sequential
// baseline, W=4 the pipelined configuration the streaming layer is
// accountable for.
func BenchmarkStreamWindowSweep(b *testing.B) {
	const n, k, d, gens = 8, 8, 64, 4
	ctx := context.Background()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := stream.Run(ctx, stream.Config{
					N: n, K: k, PayloadBits: d, Window: w, Generations: gens,
					Seed: int64(i), Lockstep: true, MaxTicks: 500000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal("stream incomplete")
				}
			}
		})
	}
}

// BenchmarkLockstepSharded exposes the shard-count axis of the
// deterministic cluster engine as b.Run sub-benchmarks, so the serial
// path (shards=1) and the sharded one (shards=4, every phase emission
// included fanned out) are timed separately. Transcripts are
// bit-identical across the axis; the sub-benchmarks exist to catch
// cost regressions in either path — the goroutine fan-out and the
// middleware lock at shards>1, and any creep at shards=1.
func BenchmarkLockstepSharded(b *testing.B) {
	const n, k, d = 64, 16, 64
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var ticks int
			for i := 0; i < b.N; i++ {
				toks := token.RandomSet(k, d, rand.New(rand.NewSource(int64(i))))
				res, err := cluster.Run(ctx, cluster.Config{
					N: n, Fanout: 2, Mode: cluster.Coded, Seed: int64(i),
					Lockstep: true, Shards: shards, MaxTicks: 200000,
				}, toks)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal("cluster incomplete")
				}
				ticks = res.Ticks
			}
			b.ReportMetric(float64(ticks), "ticks")
		})
	}
}

// BenchmarkWireRoundTrip times the codec on a cluster-sized coded
// packet (k = 32, 192-bit vectors including the coded UIDs), on the
// steady-state hot path the gossip runtimes use: AppendTo into a reused
// buffer, UnmarshalInto into a reused scratch Packet. Zero allocs/op is
// the contract, held by wire's TestWireRoundTripSteadyStateZeroAlloc.
func BenchmarkWireRoundTrip(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(8))
	p := wire.NewCoded(3, 9, rlnc.Encode(5, 32, gf.RandomBitVec(160, rng.Uint64)))
	var scratch wire.Packet
	buf := p.Marshal()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendTo(buf[:0])
		if err := wire.UnmarshalInto(&scratch, buf); err != nil {
			b.Fatal(err)
		}
		p = scratch
	}
}

// BenchmarkEmitInsertSteadyState times one full hop of the pooled
// gossip pipeline — random recombination of a full-rank span into a
// scratch packet, marshal into a reused wire buffer, decode into a
// scratch packet, insert into a receiving span — with the receiving
// span Reset (slab-reusing) every time it reaches full rank. This is
// the emission→wire→insert loop the cluster and stream runtimes run
// millions of times; the contract is 0 allocs/op in steady state, held
// by the "emission hop" case of the same test.
func BenchmarkEmitInsertSteadyState(b *testing.B) {
	b.ReportAllocs()
	const k, d = 32, 160
	rng := rand.New(rand.NewSource(14))
	src := rlnc.NewSpan(k, d)
	for i := 0; i < k; i++ {
		src.Add(rlnc.Encode(i, k, gf.RandomBitVec(d, rng.Uint64)))
	}
	sink := rlnc.NewSpan(k, d)
	var tx, rx wire.Packet
	var buf []byte
	// Warm the scratches and grow the sink's slab to full rank once.
	for sink.Rank() < k {
		if !src.RandomCombinationInto(&tx.Coded, rng) {
			b.Fatal("empty source span")
		}
		tx.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeCoded, Sender: 1, Epoch: 0}
		buf = tx.AppendTo(buf[:0])
		if err := wire.UnmarshalInto(&rx, buf); err != nil {
			b.Fatal(err)
		}
		sink.Add(rx.Coded)
	}
	sink.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !src.RandomCombinationInto(&tx.Coded, rng) {
			b.Fatal("empty source span")
		}
		tx.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeCoded, Sender: 1, Epoch: uint32(i)}
		buf = tx.AppendTo(buf[:0])
		if err := wire.UnmarshalInto(&rx, buf); err != nil {
			b.Fatal(err)
		}
		sink.Add(rx.Coded)
		if sink.Rank() == k {
			sink.Reset()
		}
	}
}

// BenchmarkAblationSecondShare measures the DESIGN.md meta-round
// ablation: total rounds to full decode with the paper's
// share-pass-share versus the fused share-pass pipeline.
func BenchmarkAblationSecondShare(b *testing.B) {
	b.ReportAllocs()
	g := graphPath24()
	const d, blocks, payload, chunkBits = 2, 4, 16, 64
	var with, without int
	for i := 0; i < b.N; i++ {
		w, err := stable.AblationMetaRounds(g, d, blocks, payload, chunkBits, true, int64(i), 200)
		if err != nil {
			b.Fatal(err)
		}
		wo, err := stable.AblationMetaRounds(g, d, blocks, payload, chunkBits, false, int64(i), 400)
		if err != nil {
			b.Fatal(err)
		}
		with, without = w, wo
	}
	b.ReportMetric(float64(with), "rounds-share-pass-share")
	b.ReportMetric(float64(without), "rounds-share-pass")
}

func graphPath24() *graph.Graph { return graph.Path(24) }

// e1Kernel is the seeded E1 trial used by the sweep-engine benchmarks.
func e1Kernel(seed int64) (float64, error) {
	const n, d = 48, 8
	adv := adversary.NewRandomConnected(n, n/2, seed)
	r, err := exp.RunIndexedUntilDecoded(n, n, d, adv, seed)
	return float64(r), err
}

// BenchmarkTrialSweepSerial times an 8-seed E1 sweep through
// sim.ParallelTrials on one worker; BenchmarkTrialSweepParallel runs the
// identical sweep on all cores. Both produce bit-identical Summaries;
// the ratio of their ns/op is the experiment-engine speedup.
func BenchmarkTrialSweepSerial(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ParallelTrials(ctx, sim.ParallelConfig{Workers: 1}, 8, e1Kernel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrialSweepParallel(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ParallelTrials(ctx, sim.ParallelConfig{}, 8, e1Kernel); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkSpanInsertGF2(b *testing.B) {
	b.ReportAllocs()
	const k, d = 256, 256
	rng := rand.New(rand.NewSource(1))
	vecs := make([]rlnc.Coded, 512)
	for i := range vecs {
		v := gf.RandomBitVec(k+d, rng.Uint64)
		vecs[i] = rlnc.Coded{K: k, Vec: v}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span := rlnc.NewSpan(k, d)
		for _, v := range vecs {
			span.Add(v)
		}
	}
}

func BenchmarkSpanDecodeGF2(b *testing.B) {
	b.ReportAllocs()
	const k, d = 128, 128
	rng := rand.New(rand.NewSource(2))
	span := rlnc.NewSpan(k, d)
	for i := 0; i < k; i++ {
		span.Add(rlnc.Encode(i, k, gf.RandomBitVec(d, rng.Uint64)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := span.Clone().Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpanDecodableCount measures the early-decoding progress query
// used by traces and experiment loops: a near-full-rank span (k = d =
// 128, rank k-1) asked how many tokens are currently recoverable.
func BenchmarkSpanDecodableCount(b *testing.B) {
	b.ReportAllocs()
	const k, d = 128, 128
	rng := rand.New(rand.NewSource(5))
	span := rlnc.NewSpan(k, d)
	src := make([]rlnc.Coded, k)
	for i := range src {
		src[i] = rlnc.Encode(i, k, gf.RandomBitVec(d, rng.Uint64))
	}
	for span.Rank() < k-1 {
		mix := gf.NewBitVec(k + d)
		for i := range src {
			if rng.Intn(2) == 1 {
				mix.Xor(src[i].Vec)
			}
		}
		span.Add(rlnc.Coded{K: k, Vec: mix})
	}
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count = span.DecodableCount()
	}
	b.ReportMetric(float64(count), "decodable")
}

// codingShapes are the coding shapes of the repo benchmark's kernel-bound
// and harness-bound workloads (benchmark/workloads.go): gossip-deep
// codes K=768 tokens of 64 UID + 1024 payload bits (29-word rows),
// gossip-wide K=32 tokens of 64 + 64 (3 words), stream-udp K=32 of
// 1088 bits (18 words). Then a row-width sweep at K=128 — 3, 6, 8, 12,
// 29 and 65 words — from rows narrower than one of gf's 64-byte vector
// registers to rows past two of its 32-word panels.
var codingShapes = append([]codingShape{
	{"shape=deep", 768, 1088},
	{"shape=wide", 32, 128},
	{"shape=udp", 32, 1088},
}, rowSweep(3, 6, 8, 12, 29, 65)...)

type codingShape struct {
	name    string
	k, bits int
}

func rowSweep(words ...int) []codingShape {
	shapes := make([]codingShape, len(words))
	for i, w := range words {
		shapes[i] = codingShape{fmt.Sprintf("words=%d", w), 128, 64*w - 128}
	}
	return shapes
}

// shapeFill returns one node's arrival sequence at a coding shape — k
// innovative recodings of a full source span — and the full-rank span
// they leave behind, as the repo benchmark's coding kernels build them.
func shapeFill(k, bits int, rng *rand.Rand) ([]rlnc.Coded, *rlnc.Span) {
	src := rlnc.NewSpan(k, bits)
	for j := 0; j < k; j++ {
		src.Add(rlnc.Encode(j, k, gf.RandomBitVec(bits, rng.Uint64)))
	}
	span := rlnc.NewSpan(k, bits)
	var fresh []rlnc.Coded
	for span.Rank() < k {
		if c, _ := src.RandomCombination(rng); span.Add(c) {
			fresh = append(fresh, c)
		}
	}
	return fresh, span
}

// BenchmarkSpanCombineInto measures one emission — a random combination
// of a full-rank span into a warmed packet — at each coding shape. It
// allocates nothing; rlnc's TestCombineIntoSteadyStateZeroAlloc holds it
// to that.
func BenchmarkSpanCombineInto(b *testing.B) {
	for _, sh := range codingShapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(6))
			_, span := shapeFill(sh.k, sh.bits, rng)
			var dst rlnc.Coded
			span.CombineInto(&dst, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				span.CombineInto(&dst, rng)
			}
		})
	}
}

// BenchmarkBitMatrixInsert measures one node's whole fill, rank 0 to K,
// into a reset matrix at each coding shape: every insert reduces against
// the basis so far and back-eliminates it. The slab is at capacity, so
// it allocates nothing; gf's TestBitMatrixInsertZeroAllocAtCapacity holds
// it to that. At the gossip-wide and gossip-deep shapes it also measures
// the two refusals of a coding matrix, whose rows pivot in the K
// coefficient columns as rlnc.NewSpan builds it: a random combination
// of the basis at rank K−1 (",dependent", refused on its coefficient
// words) and any vector at rank K (",full", refused at once).
func BenchmarkBitMatrixInsert(b *testing.B) {
	for _, sh := range codingShapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			fresh, _ := shapeFill(sh.k, sh.bits, rand.New(rand.NewSource(6)))
			m := gf.NewBitMatrix(sh.k + sh.bits)
			for _, c := range fresh {
				m.Insert(c.Vec)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				for _, c := range fresh {
					m.Insert(c.Vec)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fresh)), "ns/insert")
		})
	}
	for _, sh := range codingShapes[:2] {
		rng := rand.New(rand.NewSource(6))
		fresh, _ := shapeFill(sh.k, sh.bits, rng)
		dep := gf.NewBitVec(sh.k + sh.bits)
		for _, c := range fresh[:sh.k-1] {
			if rng.Intn(2) == 1 {
				dep.Xor(c.Vec)
			}
		}
		for _, refusal := range []struct {
			name string
			rank int
		}{{"dependent", sh.k - 1}, {"full", sh.k}} {
			m := gf.NewBitMatrixExpecting(sh.k+sh.bits, sh.k)
			m.LimitPivots(sh.k)
			for _, c := range fresh[:refusal.rank] {
				m.Insert(c.Vec)
			}
			b.Run(sh.name+","+refusal.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if m.Insert(dep) {
						b.Fatal("a dependent vector grew the rank")
					}
				}
			})
		}
	}
}

// BenchmarkSpanColdFill measures a node's coding life cycle at the
// gossip-wide and gossip-deep shapes: each op builds a fresh span and
// fills it from rank 0 to K. That is what every gossip-wide node runs
// once a sample, and what the warm, at-capacity BenchmarkBitMatrixInsert
// cannot see: the basis's storage is allocated inside the op.
func BenchmarkSpanColdFill(b *testing.B) {
	for _, sh := range codingShapes[:2] {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			fresh, _ := shapeFill(sh.k, sh.bits, rand.New(rand.NewSource(6)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				span := rlnc.NewSpan(sh.k, sh.bits)
				for _, c := range fresh {
					span.Add(c)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fresh)), "ns/insert")
		})
	}
}

func BenchmarkBitVecXor(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	x := gf.RandomBitVec(4096, rng.Uint64)
	y := gf.RandomBitVec(4096, rng.Uint64)
	b.SetBytes(4096 / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Xor(y)
	}
}

func BenchmarkGF2e8Mul(b *testing.B) {
	b.ReportAllocs()
	f := gf.MustGF2e(8)
	acc := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, uint64(i)&0xff|1)
	}
	_ = acc
}

func BenchmarkPrimeInv(b *testing.B) {
	b.ReportAllocs()
	f := gf.MustPrime(65537)
	acc := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += f.Inv(uint64(i)%65536 + 1)
	}
	_ = acc
}

// engineRound builds what BenchmarkEngineRound runs one-round phases of:
// 128 coded broadcast nodes, one 8-bit token each, under the random
// connected adversary of the synchronous session.
func engineRound() (*dynnet.Session, []*rlnc.BroadcastNode) {
	const n = 128
	nodes := make([]*rlnc.BroadcastNode, n)
	rng := rand.New(rand.NewSource(4))
	for i := range nodes {
		nrng := rand.New(rand.NewSource(int64(i)))
		nodes[i] = rlnc.NewBroadcastNode(n, 8,
			[]rlnc.Coded{rlnc.Encode(i, n, gf.RandomBitVec(8, rng.Uint64))}, nrng)
	}
	return dynnet.NewSession(n, adversary.NewRandomConnected(n, n/2, 5), dynnet.Config{}), nodes
}

func BenchmarkEngineRound(b *testing.B) {
	b.ReportAllocs()
	s, nodes := engineRound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dynnet.Run(s, nodes, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineRoundAllocCeiling holds the synchronous engine's allocation
// count per round, the one figure of this file no workload of the
// repository benchmark reaches (benchmark/README.md leaves dynnet out on
// purpose). The first round is the dearest — every node's slab and
// scratch grow then — at 662 allocations (882 before a span's basis was
// sized from its expected rank); later rounds fall to 0 as the spans
// fill.
func TestEngineRoundAllocCeiling(t *testing.T) {
	const ceiling = 700
	s, nodes := engineRound()
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	for round := 0; round < 10; round++ {
		before := mallocs()
		if err := dynnet.Run(s, nodes, 1); err != nil {
			t.Fatal(err)
		}
		if n := mallocs() - before; n > ceiling {
			t.Errorf("round %d: %d allocations for 128 nodes, ceiling %d", round, n, ceiling)
		}
	}
}
