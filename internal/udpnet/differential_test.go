package udpnet

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stream"
	"repro/internal/token"
)

// The cross-runtime differential: the same seed and the same tokens
// through the three shapes of a run — lockstep, goroutine-per-node, and
// one single-node run per socket of a loopback mesh, the last two on
// the one wall-clock driver — must leave every node with the same
// decoded set, under both protocols. The shapes share one engine, so a
// bug in one of them can no longer hide behind another's goldens; this
// is the test that would see it.

// deliveries is a concurrency-safe log of what stream nodes handed
// their consumers.
type deliveries struct {
	mu  sync.Mutex
	log []string
}

func (d *deliveries) deliver(node, gen int, toks []token.Token) {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d gen %d:", node, gen)
	for _, t := range toks {
		fmt.Fprintf(&b, " %v=%s", t.UID, t.Payload)
	}
	d.mu.Lock()
	d.log = append(d.log, b.String())
	d.mu.Unlock()
}

func (d *deliveries) sorted() []string {
	slices.Sort(d.log)
	return d.log
}

// overSockets runs body once per node of an n-socket loopback mesh,
// each on its own goroutine with its own transport, and waits.
func overSockets(t *testing.T, n int, body func(id int, tr *Transport) (done bool, err error)) {
	t.Helper()
	mesh, err := NewMesh(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	dones, errs := make([]bool, n), make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			dones[id], errs[id] = body(id, mesh.nodes[id])
		}(id)
	}
	wg.Wait()
	for id := range dones {
		if errs[id] != nil || !dones[id] {
			t.Errorf("socket node %d: done=%v err=%v", id, dones[id], errs[id])
		}
	}
}

func TestRuntimesDeliverIdenticalSets(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	const (
		n, seed  = 5, 21
		interval = 2 * time.Millisecond
		timeout  = 20 * time.Second
		linger   = time.Second
	)
	ctx := context.Background()

	// One-shot gossip verifies each node's decode against toks the
	// moment the node completes (a mismatch is the run's error), so
	// "every node Done, no error" is "every node decoded exactly toks".
	toks := testTokens(6, 48, seed)
	for _, mode := range []cluster.Mode{cluster.Coded, cluster.Forward} {
		ccfg := cluster.Config{N: n, Mode: mode, Seed: seed, Interval: interval, Timeout: timeout}
		for _, lockstep := range []bool{true, false} {
			cfg := ccfg
			cfg.Lockstep = lockstep
			res, err := cluster.Run(ctx, cfg, toks)
			if err != nil || !res.Completed {
				t.Fatalf("%v lockstep=%v: completed=%v err=%v", mode, lockstep, res.Completed, err)
			}
			for id, m := range res.Nodes {
				if !m.Done {
					t.Errorf("%v lockstep=%v: node %d not done on a completed run", mode, lockstep, id)
				}
			}
		}
		overSockets(t, n, func(id int, tr *Transport) (bool, error) {
			cfg := ccfg
			cfg.Transport = tr
			m, err := cluster.RunSingle(ctx, cfg, cluster.Single{ID: id, Linger: linger}, toks)
			return m.Done, err
		})
	}

	// The stream hands its consumer what it decoded: compare the logs.
	scfg := stream.Config{N: n, K: 4, PayloadBits: 40, Window: 2, Generations: 5, Seed: seed, Interval: interval, Timeout: timeout}
	var want []string
	for _, lockstep := range []bool{true, false} {
		var got deliveries
		cfg := scfg
		cfg.Lockstep, cfg.Deliver = lockstep, got.deliver
		res, err := stream.Run(ctx, cfg)
		if err != nil || !res.Completed {
			t.Fatalf("stream lockstep=%v: completed=%v err=%v", lockstep, res.Completed, err)
		}
		if lockstep {
			want = got.sorted()
			if len(want) != n*scfg.Generations {
				t.Fatalf("lockstep stream delivered %d generations, want %d", len(want), n*scfg.Generations)
			}
		} else if !slices.Equal(got.sorted(), want) {
			t.Errorf("async stream delivered\n%s\nlockstep delivered\n%s", strings.Join(got.log, "\n"), strings.Join(want, "\n"))
		}
	}
	var got deliveries
	overSockets(t, n, func(id int, tr *Transport) (bool, error) {
		cfg := scfg
		cfg.Transport, cfg.Deliver = tr, got.deliver
		m, err := stream.RunSingle(ctx, cfg, cluster.Single{ID: id, Linger: linger})
		return m.Done, err
	})
	if !slices.Equal(got.sorted(), want) {
		t.Errorf("socket stream delivered\n%s\nlockstep delivered\n%s", strings.Join(got.log, "\n"), strings.Join(want, "\n"))
	}
}
