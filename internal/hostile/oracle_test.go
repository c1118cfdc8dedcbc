package hostile_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/hostile"
	"repro/internal/token"
)

// servedPaths is an Adaptive that notes, for each round it serves,
// whether the path runs in id order. Embedding keeps its Watch, so
// WithAdversary hands it the run as it would the bare adversary.
type servedPaths struct {
	*hostile.Adaptive
	mu      sync.Mutex
	idOrder []bool
}

func (s *servedPaths) Graph(round int, nodes []dynnet.Node) *graph.Graph {
	g := s.Adaptive.Graph(round, nodes)
	inOrder := true
	for id := 0; id+1 < g.N(); id++ {
		inOrder = inOrder && g.HasEdge(id, id+1)
	}
	s.mu.Lock()
	s.idOrder = append(s.idOrder, inOrder)
	s.mu.Unlock()
	return g
}

// rounds returns how many rounds were served and how many of them after
// the first ran in id order.
func (s *servedPaths) rounds() (served, laterInOrder int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, in := range s.idOrder {
		if i > 0 && in {
			laterInOrder++
		}
	}
	return len(s.idOrder), laterInOrder
}

// TestAdaptiveReadsTheRun: under cluster.Run the adaptive rule is handed
// the run, so from tick 2 on it serves the rank-sorted path; tick 1,
// drawn before any node has spoken, is the id-order path. A stack that
// hid the schedule from the driver would leave every round in id order.
func TestAdaptiveReadsTheRun(t *testing.T) {
	const n, k = 10, 8
	adv := &servedPaths{Adaptive: hostile.NewAdaptive(n, 5)}
	cfg := cluster.Config{N: n, Fanout: 2, Mode: cluster.Coded, Seed: 5, Lockstep: true, MaxTicks: 200000}
	tr := hostile.WithAdversary(cfg.DefaultTransport(0), adv, nil)
	cfg.Transport = cluster.WithLoss(tr, 0.1, 4)
	res, err := cluster.Run(context.Background(), cfg, token.RandomSet(k, 32, rand.New(rand.NewSource(5))))
	if err != nil || !res.Completed {
		t.Fatalf("completed %v, error %v", res.Completed, err)
	}
	served, inOrder := adv.rounds()
	if served != res.Ticks || !adv.idOrder[0] {
		t.Fatalf("%d rounds served over %d ticks, the first in id order: %v", served, res.Ticks, served > 0 && adv.idOrder[0])
	}
	if inOrder == served-1 {
		t.Errorf("every one of %d rounds after the first ran in id order: the adversary never saw the run", served-1)
	}
}

// TestAdaptiveAsyncTargetedChurn runs the adaptive adversary and the
// targeted crashes, the two readers of the run's Oracle, under the
// wall-clock driver, where the run's clock goroutine reads what the
// nodes' goroutines publish. Run it under -race.
func TestAdaptiveAsyncTargetedChurn(t *testing.T) {
	const n, k = 8, 8
	sched, err := cluster.ParseChurn("crashmax:4:1,restart:12:1,crashfrontier:16:1")
	if err != nil {
		t.Fatal(err)
	}
	adv := &servedPaths{Adaptive: hostile.NewAdaptive(n, 7)}
	cfg := cluster.Config{N: n, Fanout: 2, Mode: cluster.Coded, Seed: 7, Churn: sched,
		Interval: time.Millisecond, Timeout: 20 * time.Second}
	cfg.Transport = hostile.WithAdversary(cfg.DefaultTransport(0), adv, nil)
	res, err := cluster.Run(context.Background(), cfg, token.RandomSet(k, 32, rand.New(rand.NewSource(7))))
	if err != nil || !res.Completed {
		t.Fatalf("completed %v, error %v", res.Completed, err)
	}
	if served, inOrder := adv.rounds(); served < 2 || inOrder == served-1 {
		t.Errorf("%d rounds served, %d of those after the first in id order: the adversary never saw the run", served, inOrder)
	}
}

// TestRunSingleOracleIsItsOwnNode: a process of a multi-process run
// spawns one node of N, so the run its rules are handed has that node
// live and no other.
func TestRunSingleOracleIsItsOwnNode(t *testing.T) {
	const n, id = 4, 2
	var run cluster.Oracle
	var socket cluster.Transport = cluster.NewChanTransport(n, 64)
	defer socket.Close()
	cfg := cluster.Config{N: n, Mode: cluster.Coded, Seed: 1, Interval: time.Millisecond, Timeout: 200 * time.Millisecond}
	cfg.Transport = cluster.WithRule(socket, cluster.Rule{
		Decide: func(int, int, []byte, int64) cluster.Verdict { return cluster.Verdict{} },
		Watch:  func(o cluster.Oracle) { run = o },
	})
	toks := token.RandomSet(8, 32, rand.New(rand.NewSource(1)))
	if _, err := cluster.RunSingle(context.Background(), cfg, cluster.Single{ID: id, Linger: time.Millisecond}, toks); err != nil {
		t.Fatal(err)
	}
	if run == nil {
		t.Fatal("the rules were never handed the run")
	}
	for other := 0; other < n; other++ {
		if run.Live(other) != (other == id) {
			t.Errorf("id %d: Live %v; only node %d is spawned", other, run.Live(other), id)
		}
	}
	if got := run.Progress(id); got != 2 {
		t.Errorf("node %d published progress %d, want its 2 seeded tokens", id, got)
	}
}
