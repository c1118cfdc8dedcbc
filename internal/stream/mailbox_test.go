package stream

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// TestStreamMailboxMatchesChannels is cluster.TestMailboxMatchesChannels
// for the stream: a lockstep run over DefaultTransport() (the tick
// mailbox) and the same run over an explicit ChanTransport of the same
// capacity agree on every per-node counter, Ticks, Dropped and the whole
// telemetry export (whose inbox column each fabric reads its own way),
// at every shard count, with and without loss, under crash, join,
// leave, restart and rejoin.
func TestStreamMailboxMatchesChannels(t *testing.T) {
	sched, err := cluster.ParseChurn("crash:8:1,join:11:1,leave:15:1,restart:19:1,rejoin:24:1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config, tr cluster.Transport, loss float64) (*Result, string) {
		cfg.Transport = cluster.WithLoss(tr, loss, cfg.Seed+103)
		cfg.Telemetry = telemetry.New(telemetry.Config{Nodes: cfg.runtime().MaxNodes()})
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		var b bytes.Buffer
		if err := cfg.Telemetry.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return res, b.String()
	}
	for _, shards := range []int{1, 2, 4} {
		for _, loss := range []float64{0, 0.2} {
			cfg := Config{
				N: 10, K: 4, PayloadBits: 32, Window: 2, Generations: 6, Fanout: 2,
				Seed: 23, Lockstep: true, Shards: shards, MaxTicks: 100000, Churn: sched,
			}
			name := fmt.Sprintf("shards=%d loss=%v", shards, loss)
			maxN := cfg.runtime().MaxNodes()
			got, gotTrace := run(cfg, cfg.DefaultTransport(), loss)
			// +1: the hello headroom DefaultTransport adds under churn.
			want, wantTrace := run(cfg, cluster.NewChanTransport(maxN, DefaultInboxBuffer(maxN, cfg.Fanout+1)), loss)
			if !got.Completed {
				t.Errorf("%s: run did not complete in %d ticks", name, got.Ticks)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: results diverge:\nmailbox  %+v\nchannels %+v", name, got.Outcome, want.Outcome)
			}
			if gotTrace != wantTrace {
				t.Errorf("%s: telemetry exports diverge (%d vs %d bytes)", name, len(gotTrace), len(wantTrace))
			}
		}
	}
}
