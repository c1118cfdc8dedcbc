package stream

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/token"
)

// TestStreamChurnTranscriptPinned is the stream's twin of
// cluster.TestChurnTranscriptPinned: lockstep churn runs under loss,
// pinned by every protocol decision (ticks, data, ack, hello and
// drop counts, each node's completion tick, entry tick and start
// generation) and by nothing that is only wire spelling (BitsOut). The
// first is one crash+join+leave; the second fragments views (mid-range
// leaves that stay gone, a rejoin, joins after leaves) with a suspicion
// threshold short enough that crashed peers leave and re-enter frontiers
// while the run is still streaming. Both lose a founding origin's share
// for good (checkEnd), so both stop at the cap, twice the ticks they
// took when the stream re-sourced such shares from its Source.
func TestStreamChurnTranscriptPinned(t *testing.T) {
	for _, c := range []struct {
		cfg   Config
		churn string
		want  string
	}{
		{Config{N: 24, K: 8, PayloadBits: 64, Window: 3, Generations: 10, Seed: 7},
			"crash:6:3,join:9:3,leave:14:2",
			"ticks=400 out=17653 in=12306 hellos=126 acks=8812 dropped=7380 toks=176 live=22 nodes=27 hash=dc90e42ebc38d1d1"},
		{Config{N: 96, K: 8, PayloadBits: 64, Window: 3, Generations: 12, Seed: 5, SuspectTicks: 12},
			"crash:6:5,leave:9:6,join:14:5,rejoin:20:2,leave:26:4,join:31:4,restart:37:2,crash:42:3,join:48:3,rejoin:55:2,leave:60:3,join:66:2",
			"ticks=400 out=74704 in=53440 hellos=3568 acks=37762 dropped=26414 toks=2896 live=95 nodes=110 hash=d4671e66dab80e24"},
	} {
		sched, err := cluster.ParseChurn(c.churn)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			cfg := c.cfg
			cfg.Lockstep, cfg.Shards, cfg.MaxTicks, cfg.Churn = true, shards, 400, sched
			cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.2, cfg.Seed+101)
			res, nodes := keptRun(t, cfg)
			checkEnd(t, fmt.Sprintf("%s shards %d", c.churn, shards), res, nodes)
			h := fnv.New64a()
			var hellos int64
			for id, m := range res.Nodes {
				hellos += m.HellosOut
				fmt.Fprintf(h, "%d:%d/%d/%d/%d/%d/%d/%d/%d/%d;", id, m.DoneTick, m.JoinTick, m.StartGen,
					m.PacketsOut, m.PacketsIn, m.AcksOut, m.AcksIn, m.HellosOut, m.Dropped)
			}
			got := fmt.Sprintf("ticks=%d out=%d in=%d hellos=%d acks=%d dropped=%d toks=%d live=%d nodes=%d hash=%016x",
				res.Ticks, res.PacketsOut, res.PacketsIn, hellos, res.AcksOut, res.Dropped,
				res.TokensDelivered, res.FinalLive, len(res.Nodes), h.Sum64())
			if got != c.want {
				t.Errorf("%s shards %d: transcript moved:\n got %s\nwant %s", c.churn, shards, got, c.want)
			}
		}
	}
}

// TestBitsByKindSumOnGoldens: on the configurations of every stream
// golden — the lockstep goldens' five seeds and the churn transcripts'
// two schedules — the bits of the data packets (each a coded vector of
// K + UIDBits + PayloadBits), of the acks and of the hellos add up to
// BitsOut exactly.
func TestBitsByKindSumOnGoldens(t *testing.T) {
	var cfgs []Config
	for seed := int64(1); seed <= 5; seed++ {
		cfg := Config{N: 8, K: 6, PayloadBits: 48, Window: 3, Generations: 6, Seed: seed, Lockstep: true, MaxTicks: 200000}
		cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.2, seed+3)
		cfgs = append(cfgs, cfg)
	}
	for _, c := range []struct {
		cfg   Config
		churn string
	}{
		{Config{N: 24, K: 8, PayloadBits: 64, Window: 3, Generations: 10, Seed: 7}, "crash:6:3,join:9:3,leave:14:2"},
		{Config{N: 96, K: 8, PayloadBits: 64, Window: 3, Generations: 12, Seed: 5, SuspectTicks: 12},
			"crash:6:5,leave:9:6,join:14:5,rejoin:20:2,leave:26:4,join:31:4,restart:37:2,crash:42:3,join:48:3,rejoin:55:2,leave:60:3,join:66:2"},
	} {
		sched, err := cluster.ParseChurn(c.churn)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Lockstep, cfg.MaxTicks, cfg.Churn = true, 400, sched
		cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), 0.2, cfg.Seed+101)
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		res, nodes := keptRun(t, cfg)
		checkEnd(t, fmt.Sprintf("seed %d", cfg.Seed), res, nodes)
		data := res.PacketsOut * int64(cfg.K+token.UIDBits+cfg.PayloadBits)
		if sum := data + res.AckBitsOut + res.HelloBitsOut; sum != res.BitsOut || res.AckBitsOut == 0 {
			t.Errorf("seed %d churn %v: data %d + acks %d + hellos %d = %d bits, BitsOut %d", cfg.Seed, cfg.Churn != nil,
				data, res.AckBitsOut, res.HelloBitsOut, sum, res.BitsOut)
		}
		if (res.HelloBitsOut > 0) != (cfg.Churn != nil) {
			t.Errorf("seed %d: %d hello bits with churn %v", cfg.Seed, res.HelloBitsOut, cfg.Churn != nil)
		}
	}
}
