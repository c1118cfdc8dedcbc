package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
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

// tickedTransport records the tick of every sender's latest Send, as
// the driver's ObserveTick calls report it.
type tickedTransport struct {
	Transport
	mu       sync.Mutex
	tick     int64
	lastSend map[int]int64
}

func (t *tickedTransport) ObserveTick(tick int64) {
	t.mu.Lock()
	t.tick = max(t.tick, tick)
	t.mu.Unlock()
}

func (t *tickedTransport) Send(from, to int, pkt []byte) bool {
	t.mu.Lock()
	t.lastSend[from] = t.tick
	t.mu.Unlock()
	return t.Transport.Send(from, to, pkt)
}

// lateFailure is a Protocol done from its start that fails at its third
// full emission slot: a failure inside the linger window.
type lateFailure struct {
	nd    *Node
	slots int
}

var errLate = errors.New("late failure")

func (p *lateFailure) Start()                      {}
func (p *lateFailure) Absorb(*wire.Packet) bool    { return false }
func (p *lateFailure) Done() bool                  { return true }
func (p *lateFailure) Progress() (rank, water int) { return 0, 0 }
func (p *lateFailure) Restart()                    {}
func (p *lateFailure) Leave()                      {}
func (p *lateFailure) Emit(full bool) {
	if full {
		if p.slots++; p.slots == 3 {
			p.nd.Fail(errLate)
		}
	}
}

// TestRunSingleLinger pins the linger contract of a one-node run: after
// its own completion the node keeps gossiping for Single.Linger and
// returns no earlier; a Timeout shorter than the linger cuts it short
// with no error and Done set; a failure during the linger is the run's
// error.
func TestRunSingleLinger(t *testing.T) {
	const n, interval = 2, time.Millisecond
	toks := testTokens(4, 32, 7)
	two := func(linger, timeout time.Duration) ([n]NodeMetrics, [n]time.Duration, map[int]int64) {
		t.Helper()
		tr := &tickedTransport{Transport: NewChanTransport(n, 64), lastSend: map[int]int64{}}
		defer tr.Close()
		cfg := Config{N: n, Seed: 3, Transport: tr, Interval: interval, Timeout: timeout}
		var (
			wg      sync.WaitGroup
			ms      [n]NodeMetrics
			elapsed [n]time.Duration
			errs    [n]error
		)
		for id := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				ms[id], errs[id] = RunSingle(context.Background(), cfg, Single{ID: id, Linger: linger}, toks)
				elapsed[id] = time.Since(start)
			}()
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("linger %v timeout %v: node %d: %v", linger, timeout, id, err)
			}
			if !ms[id].Done {
				t.Fatalf("linger %v timeout %v: node %d did not complete", linger, timeout, id)
			}
		}
		return ms, elapsed, tr.lastSend
	}

	const linger = 300 * time.Millisecond
	ms, elapsed, lastSend := two(linger, 20*time.Second)
	for id := range n {
		if done := time.Duration(ms[id].DoneTick) * interval; elapsed[id] < done+linger {
			t.Errorf("node %d returned %v after its start, done at %v: before the %v linger ended", id, elapsed[id], done, linger)
		}
		if ticks := int64(ms[id].DoneTick) + int64(linger/interval/2); lastSend[id] < ticks {
			t.Errorf("node %d last sent at tick %d, done at %d: stopped gossiping within the linger", id, lastSend[id], ms[id].DoneTick)
		}
	}

	_, elapsed, _ = two(time.Hour, 200*time.Millisecond)
	for id, e := range elapsed {
		if e > 10*time.Second {
			t.Errorf("node %d returned after %v: the 200ms timeout did not cut the linger short", id, e)
		}
	}

	var m NodeMetrics
	tr := NewChanTransport(n, 64)
	defer tr.Close()
	eng := Engine{New: func(nd *Node, _ bool) Protocol { return &lateFailure{nd: nd} }, Metrics: func(int) *NodeMetrics { return &m }}
	start := time.Now()
	err := eng.RunSingle(context.Background(), Config{N: n, Transport: tr, Interval: interval, Timeout: time.Minute}, Single{ID: 0, Linger: time.Minute})
	if !errors.Is(err, errLate) || !m.Done {
		t.Errorf("failure during the linger: err %v, Done %v; want %v and Done", err, m.Done, errLate)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Errorf("failure during the linger returned after %v", e)
	}
}
