package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/stream"
	"repro/internal/udpnet"
)

// workload is one named input shape. Every field is an input to the
// single cluster.Run / stream.Run call a sample makes; nothing here
// selects a code path the program would not pick from the same inputs.
type workload struct {
	Name string

	// Stream selects stream.Run (windowed generations) over cluster.Run
	// (one-shot k-token gossip).
	Stream bool
	// UDP runs the async goroutine-per-node driver over a loopback
	// udpnet.Mesh; every other workload runs the lockstep driver over
	// in-process channels.
	UDP bool

	N, K, D, Fanout, Shards int
	Window, Generations     int
	Loss                    float64
	Churn                   string
	// Twin names the serial workload whose transcript a sharded workload
	// must reproduce bit for bit.
	Twin string
}

// The sizes were fitted on a 2-core container so that one cold-process
// sample costs 1.5–2 s and a run of BENCHMARK.json's run_seconds holds
// at least minSamples of them; README.md records the measured times and
// why gossip-deep, stream-lossy and stream-udp are smaller than the
// issue's starting sizes. The reason each workload exists is its `why`
// in BENCHMARK.json and the table in README.md.
var workloads = []workload{
	{Name: "gossip-wide", N: 8192, K: 32, D: 64, Fanout: 2, Shards: 1},
	{Name: "gossip-wide-sharded", N: 8192, K: 32, D: 64, Fanout: 2, Shards: 2, Twin: "gossip-wide"},
	{Name: "gossip-deep", N: 64, K: 768, D: 1024, Fanout: 2, Shards: 1},
	{Name: "gossip-churn", N: 1024, K: 64, D: 64, Fanout: 2, Shards: 1, Loss: 0.2,
		Churn: "crash:3:32,join:5:32,leave:8:16,restart:12:16,rejoin:16:16"},
	{Name: "stream-lossy", Stream: true, N: 192, K: 32, D: 256, Fanout: 2, Shards: 1,
		Window: 4, Generations: 32, Loss: 0.2},
	{Name: "stream-udp", Stream: true, UDP: true, N: 16, K: 32, D: 1024, Fanout: 2,
		Window: 4, Generations: 300},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// lockstep reports whether the run is a pure function of the seed, so
// every simulated statistic must repeat exactly for a repeated seed.
func (w workload) lockstep() bool { return !w.UDP }

func (w workload) churn() *cluster.ChurnSchedule {
	c, err := cluster.ParseChurn(w.Churn)
	if err != nil {
		panic(err) // the table above is the only source of schedules
	}
	return c
}

// maxN is the run's node id space (initial members plus churn joins).
func (w workload) maxN() int { return w.N + w.churn().Joins() }

// inboxBuffer is the per-node inbox the workload's transport is built
// with: the library's own default rule for the runtime in question,
// with the hello headroom slot Run adds under churn.
func (w workload) inboxBuffer() int {
	extra := 0
	if w.Churn != "" {
		extra = 1
	}
	if w.Stream {
		return stream.DefaultInboxBuffer(w.maxN(), w.Fanout+extra)
	}
	return cluster.DefaultInboxBuffer(w.maxN(), w.Fanout+extra)
}

// transport builds the workload's packet path. A nil return means the
// workload leaves Config.Transport nil and takes the library default;
// explicit forces the equivalent transport into existence so the traced
// pass has something to decorate.
func (w workload) transport(seed int64, explicit bool) (cluster.Transport, error) {
	if w.UDP {
		return udpnet.NewMesh(w.N, 0)
	}
	if w.Loss == 0 && w.Churn == "" && !explicit {
		return nil, nil
	}
	tr := cluster.Transport(cluster.NewChanTransport(w.maxN(), w.inboxBuffer()))
	return cluster.WithLoss(tr, w.Loss, seed+103), nil
}
