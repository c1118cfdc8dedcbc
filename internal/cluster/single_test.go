package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunSingleCrossProcessEquivalent runs N independent RunSingle
// bodies — the cmd/node process shape — over one shared ChanTransport
// and requires every node to decode and verify all k tokens, proving
// the single-node runtime interoperates without the in-process drivers'
// shared run state.
func TestRunSingleCrossProcessEquivalent(t *testing.T) {
	const n, k, d = 5, 10, 64
	toks := testTokens(k, d, 11)
	cfg := Config{N: n, Seed: 21, Timeout: 20 * time.Second}
	cfg.Transport = cfg.DefaultTransport(0)
	defer cfg.Transport.Close()

	var wg sync.WaitGroup
	results := make([]NodeMetrics, n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunSingle(context.Background(), cfg, Single{ID: id, Linger: 500 * time.Millisecond}, toks)
		}(id)
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		if !results[id].Done {
			t.Errorf("node %d did not complete (innovative %d, in %d)",
				id, results[id].Innovative, results[id].PacketsIn)
		}
	}
}

// TestRunSingleForwardMode exercises the store-and-forward gossiper
// through the single-node runtime.
func TestRunSingleForwardMode(t *testing.T) {
	const n, k, d = 3, 6, 32
	toks := testTokens(k, d, 5)
	cfg := Config{N: n, Mode: Forward, Seed: 9, Timeout: 20 * time.Second}
	cfg.Transport = cfg.DefaultTransport(0)
	defer cfg.Transport.Close()

	var wg sync.WaitGroup
	results := make([]NodeMetrics, n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunSingle(context.Background(), cfg, Single{ID: id, Linger: 500 * time.Millisecond}, toks)
		}(id)
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		if !results[id].Done {
			t.Errorf("node %d did not complete", id)
		}
	}
}

// TestRunSingleValidation pins the misconfiguration errors: what
// RunSingle itself checks, and the fields only an in-process driver can
// honour, each rejected by the engine under one message whatever the
// protocol (internal/stream's TestStreamRunSingleValidation expects
// the same strings).
func TestRunSingleValidation(t *testing.T) {
	toks := testTokens(2, 8, 1)
	tr := NewChanTransport(2, 1)
	defer tr.Close()
	sched, err := ParseChurn("join:5:1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		id   int
		want string
	}{
		{"no transport", Config{N: 2}, 0, "needs a Transport"},
		{"no nodes", Config{Transport: tr}, 0, "at least 1 node"},
		{"id out of range", Config{N: 2, Transport: tr}, 2, "node id 2 outside [0, 2)"},
		{"negative id", Config{N: 2, Transport: tr}, -1, "node id -1 outside [0, 2)"},
		{"bad mode", Config{N: 2, Mode: 7, Transport: tr}, 0, "unknown mode"},
		{"lockstep", Config{N: 2, Transport: tr, Lockstep: true}, 0, "Config.Lockstep belongs to the in-process drivers"},
		{"shards", Config{N: 2, Transport: tr, Shards: 2}, 0, "Config.Shards belongs to the in-process drivers"},
		{"max ticks", Config{N: 2, Transport: tr, MaxTicks: 10}, 0, "Config.MaxTicks belongs to the in-process drivers"},
		{"churn", Config{N: 2, Transport: tr, Churn: sched}, 0, "Config.Churn belongs to the in-process drivers"},
	}
	for _, tc := range cases {
		if _, err := RunSingle(context.Background(), tc.cfg, Single{ID: tc.id}, toks); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := RunSingle(context.Background(), Config{N: 2, Transport: tr}, Single{}, nil); err == nil {
		t.Error("empty token set: no error")
	}
}

// TestRunSingleTimeoutIncomplete pins the partition behavior: a node
// whose peers never show up times out with Done == false and no error
// (the caller decides whether that is a failure).
func TestRunSingleTimeoutIncomplete(t *testing.T) {
	toks := testTokens(4, 16, 3)
	tr := NewChanTransport(2, 4)
	defer tr.Close()
	m, err := RunSingle(context.Background(), Config{
		N: 2, Seed: 1, Transport: tr,
		Timeout: 50 * time.Millisecond, Interval: time.Millisecond,
	}, Single{ID: 0}, toks)
	if err != nil {
		t.Fatalf("timeout run errored: %v", err)
	}
	if m.Done {
		t.Error("node completed without its peer's tokens")
	}
}
