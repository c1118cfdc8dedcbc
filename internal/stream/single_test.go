package stream

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestStreamRunSingleCrossProcess runs N independent RunSingle bodies
// — the cmd/node -mode stream process shape — over one shared
// ChanTransport and requires every node to deliver the whole stream in
// order, with every generation verified against the shared seeded
// Source each process derives independently.
func TestStreamRunSingleCrossProcess(t *testing.T) {
	const n, k, d, gens, window = 4, 6, 32, 6, 3
	cfg := Config{
		N: n, K: k, PayloadBits: d, Window: window, Generations: gens,
		Seed: 33, Timeout: 30 * time.Second,
	}
	cfg.Transport = cfg.DefaultTransport()
	defer cfg.Transport.Close()

	var delivered atomic.Int64
	var wg sync.WaitGroup
	results := make([]NodeMetrics, n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunSingle(context.Background(), cfg, cluster.Single{ID: id, Linger: 500 * time.Millisecond})
			delivered.Add(int64(results[id].Delivered))
		}(id)
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		if !results[id].Done {
			t.Errorf("node %d delivered %d/%d generations", id, results[id].Delivered, gens)
		}
	}
	if got, want := delivered.Load(), int64(n*gens); got != want {
		t.Errorf("total deliveries %d, want %d", got, want)
	}
}

// TestStreamRunSingleValidation pins the misconfiguration errors: the
// stream's own shape checks, and the engine's — worded exactly as
// internal/cluster's TestRunSingleValidation sees them, because there
// is one check behind both protocols.
func TestStreamRunSingleValidation(t *testing.T) {
	tr := cluster.NewChanTransport(2, 1)
	defer tr.Close()
	sched, err := cluster.ParseChurn("join:5:1")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{N: 2, K: 2, PayloadBits: 8, Generations: 2, Transport: tr}
	cases := []struct {
		name string
		mut  func(c *Config, s *cluster.Single)
		want string
	}{
		{"no transport", func(c *Config, _ *cluster.Single) { c.Transport = nil }, "needs a Transport"},
		{"no nodes", func(c *Config, _ *cluster.Single) { c.N = 0 }, "at least 1 node"},
		{"id out of range", func(_ *Config, s *cluster.Single) { s.ID = 2 }, "node id 2 outside [0, 2)"},
		{"negative id", func(_ *Config, s *cluster.Single) { s.ID = -1 }, "node id -1 outside [0, 2)"},
		{"zero k", func(c *Config, _ *cluster.Single) { c.K = 0 }, "token per generation"},
		{"zero payload", func(c *Config, _ *cluster.Single) { c.PayloadBits = 0 }, "payload bit"},
		{"zero generations", func(c *Config, _ *cluster.Single) { c.Generations = 0 }, "at least 1 generation"},
		{"negative window", func(c *Config, _ *cluster.Single) { c.Window = -1 }, "negative window"},
		{"lockstep", func(c *Config, _ *cluster.Single) { c.Lockstep = true }, "Config.Lockstep belongs to the in-process drivers"},
		{"shards", func(c *Config, _ *cluster.Single) { c.Shards = 2 }, "Config.Shards belongs to the in-process drivers"},
		{"max ticks", func(c *Config, _ *cluster.Single) { c.MaxTicks = 10 }, "Config.MaxTicks belongs to the in-process drivers"},
		{"churn", func(c *Config, _ *cluster.Single) { c.Churn = sched }, "Config.Churn belongs to the in-process drivers"},
	}
	for _, tc := range cases {
		cfg, s := base, cluster.Single{}
		tc.mut(&cfg, &s)
		if _, err := RunSingle(context.Background(), cfg, s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
