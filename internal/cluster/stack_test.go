package cluster_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/dynnet"
	"repro/internal/graph"
	"repro/internal/hostile"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// tally is a plain Layer, no fault of its own: it counts the Sends that
// reach it.
type tally struct {
	cluster.Layer
	n atomic.Int64
}

func (c *tally) Send(from, to int, pkt []byte) bool {
	c.n.Add(1)
	return c.Transport.Send(from, to, pkt)
}

// stackRun drives a fault stack over the tick mailbox the way
// TestMiddlewareOrderIndependent does, and returns the same transcript:
// every tick's inboxes, then each sender's Send results and telemetry.
// The stack's rules hold a run of n live ids from the start, each
// publishing a rank before its first Send of a tick.
// tail more ticks follow without Sends, so short delays drain; each is
// called, when non-nil, after every tick's barrier. The inbox bytes
// are empty hellos, so a wire.Version bump moves every pin built on a
// transcript and nothing else does.
type stackRun struct {
	n, ticks, perTick, tail int
	build                   func(rec *telemetry.Recorder, tr cluster.Transport) cluster.Transport
	each                    func(tick int, tr cluster.Transport)
}

func (r stackRun) transcript(interleave func(tick int, send func(from int))) string {
	rec := telemetry.New(telemetry.Config{Nodes: r.n})
	for id := 0; id < r.n; id++ {
		rec.Event(id, 0, telemetry.KindJoin, 0, 0, 0) // each ring opens with its sender's join
	}
	tr := r.build(rec, cluster.Config{N: r.n, Lockstep: true}.DefaultTransport(0))
	ranks := make(cluster.Ranks, r.n)
	cluster.Watch(tr, ranks)
	var b strings.Builder
	results := make([][]bool, r.n)
	sent := make([]int, r.n)
	for tick := 1; tick <= r.ticks+r.tail; tick++ {
		cluster.ObserveTick(tr, int64(tick))
		clear(sent)
		if tick <= r.ticks {
			interleave(tick, func(from int) {
				i := sent[from]
				sent[from]++
				if i == 0 {
					ranks[from] = from * tick % 5
				}
				to := (from + 1 + (tick+i)%(r.n-1)) % r.n
				pkt := wire.NewHello(from, tick*r.perTick+i+1, wire.Hello{}).Marshal()
				results[from] = append(results[from], tr.Send(from, to, pkt))
			})
		}
		for id, box := range cluster.MailboxTick(tr) {
			fmt.Fprintf(&b, "tick %d inbox %d: %x\n", tick, id, box)
		}
		if r.each != nil {
			r.each(tick, tr)
		}
	}
	for id := 0; id < r.n; id++ {
		fmt.Fprintf(&b, "sender %d: %v %v\n", id, results[id], rec.Events(id))
	}
	return b.String()
}

// inShards sends every sender's perTick packets from shards goroutines,
// sender id to goroutine id mod shards, as the sharded emit phase does;
// one shard is ascending sender order.
func inShards(n, perTick, shards int) func(int, func(int)) {
	return func(_ int, send func(int)) {
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for from := s; from < n; from += shards {
					for i := 0; i < perTick; i++ {
						send(from)
					}
				}
			}()
		}
		wg.Wait()
	}
}

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// TestMiddlewareTranscriptPinned pins what TestMiddlewareOrderIndependent
// compares with itself: its stack's ascending-sender transcript.
func TestMiddlewareTranscriptPinned(t *testing.T) {
	const n, seed = 8, 7
	run := stackRun{n: n, ticks: 16, perTick: 6, build: func(rec *telemetry.Recorder, tr cluster.Transport) cluster.Transport {
		tr = cluster.WithDelay(tr, 0, 2, seed)
		tr = cluster.WithReorder(tr, 0.2, seed)
		tr = cluster.WithLoss(tr, 0.2, seed)
		tr = hostile.WithMutator(tr, hostile.MutationSpec{Dup: 0.1, Stale: 0.1, Trunc: 0.1, Flip: 0.1, Xgen: 0.1}, seed, rec)
		return hostile.WithAdversary(tr, hostile.NewAdaptive(n, seed), rec)
	}}
	const want = "0e96c6a6b5fe9806b9e6efbbfba9753ea459017ad0b12e31f15677ac99f773db"
	if got := sha(run.transcript(inShards(n, 6, 1))); got != want {
		t.Errorf("transcript sha256 %s, want %s", got, want)
	}
}

// layerSpec is one fault constructor, with its arguments, or a plain
// tally Layer.
type layerSpec struct {
	kind     string // loss, delay, reorder, partition, mutate, adversary, plain
	rate     float64
	min, max int
	seed     int64
	mut      hostile.MutationSpec
	adv      string // adaptive, rotating-path, random, trace
}

func (l layerSpec) String() string {
	switch l.kind {
	case "loss", "reorder":
		return fmt.Sprintf("%s(%g,%d)", l.kind, l.rate, l.seed)
	case "delay":
		return fmt.Sprintf("delay(%d,%d,%d)", l.min, l.max, l.seed)
	case "partition":
		return fmt.Sprintf("partition(%%%d)", l.min)
	case "mutate":
		return fmt.Sprintf("mutate(%s,%d)", l.mut, l.seed)
	case "adversary":
		return fmt.Sprintf("adversary(%s,%d)", l.adv, l.seed)
	}
	return l.kind
}

const stackTrace = "2 0 1 down\n3 2 5 down\n5 0 1 up\n7 3 4 down\n9 2 5 up\n"

func (l layerSpec) wrap(tr cluster.Transport, n int, rec *telemetry.Recorder) cluster.Transport {
	switch l.kind {
	case "loss":
		return cluster.WithLoss(tr, l.rate, l.seed)
	case "delay":
		return cluster.WithDelay(tr, l.min, l.max, l.seed)
	case "reorder":
		return cluster.WithReorder(tr, l.rate, l.seed)
	case "partition":
		mod := l.min
		return cluster.WithPartition(tr, func(from, to int) bool { return (3*from+to)%mod == 0 })
	case "mutate":
		return hostile.WithMutator(tr, l.mut, l.seed, rec)
	case "adversary":
		var adv dynnet.Adversary
		switch l.adv {
		case "adaptive":
			adv = hostile.NewAdaptive(n, l.seed)
		case "rotating-path":
			adv = adversary.NewRotatingPath(n, l.seed)
		case "random":
			adv = adversary.NewRandomConnected(n, n/2, l.seed)
		case "trace":
			ta, err := hostile.ParseTrace(strings.NewReader(stackTrace), n)
			if err != nil {
				panic(err)
			}
			adv = ta
		}
		return hostile.WithAdversary(tr, adv, rec)
	}
	return &tally{Layer: cluster.Layer{Transport: tr}}
}

// randomStacks is a seeded table of fault stacks, innermost layer first,
// every one over a tally: the stacks the tests in this file name, then
// random ones of one to six layers, repeats and plain layers included.
func randomStacks() [][]layerSpec {
	all := hostile.MutationSpec{Dup: 0.1, Stale: 0.1, Trunc: 0.1, Flip: 0.1, Xgen: 0.1}
	stacks := [][]layerSpec{
		// TestMiddlewareOrderIndependent's
		{{kind: "delay", max: 2, seed: 7}, {kind: "reorder", rate: 0.2, seed: 7}, {kind: "loss", rate: 0.2, seed: 7},
			{kind: "mutate", mut: all, seed: 7}, {kind: "adversary", adv: "adaptive", seed: 7}},
		// udpnet's: partition innermost, delay mid-stack
		{{kind: "partition", min: 5}, {kind: "reorder", rate: 0.3, seed: 31}, {kind: "delay", max: 2, seed: 32}, {kind: "loss", rate: 0.15, seed: 33}},
		// cliutil.Wrap's, every flag set
		{{kind: "delay", min: 1, max: 3, seed: 1}, {kind: "reorder", rate: 0.1, seed: 1}, {kind: "loss", rate: 0.1, seed: 1},
			{kind: "mutate", mut: hostile.MutationSpec{Dup: 0.02, Stale: 0.02, Trunc: 0.02, Flip: 0.02, Xgen: 0.02}, seed: 1},
			{kind: "adversary", adv: "adaptive", seed: 105}},
		// TestAdversaryUnderPlainMiddlewareSeesEveryTick's
		{{kind: "adversary", adv: "rotating-path", seed: 3}, {kind: "partition", min: 97}, {kind: "reorder", rate: 0.1, seed: 5}, {kind: "loss", rate: 0.1, seed: 4}},
	}
	rng := rand.New(rand.NewSource(30))
	kinds := []string{"loss", "delay", "reorder", "partition", "mutate", "adversary", "plain"}
	advs := []string{"adaptive", "rotating-path", "random", "trace"}
	for len(stacks) < 32 {
		var s []layerSpec
		for depth := 1 + rng.Intn(6); len(s) < depth; {
			l := layerSpec{kind: kinds[rng.Intn(len(kinds))], seed: rng.Int63n(1000)}
			switch l.kind {
			case "loss", "reorder":
				l.rate = float64(5+rng.Intn(36)) / 100
			case "delay":
				l.min = rng.Intn(2)
				l.max = l.min + rng.Intn(3)
			case "partition":
				l.min = 3 + rng.Intn(6)
			case "mutate":
				rates := []*float64{&l.mut.Dup, &l.mut.Stale, &l.mut.Trunc, &l.mut.Flip, &l.mut.Xgen}
				for !l.mut.Enabled() {
					for _, r := range rates {
						if rng.Intn(2) == 0 {
							*r = float64(5+rng.Intn(26)) / 100
						}
					}
				}
			case "adversary":
				l.adv = advs[rng.Intn(len(advs))]
			}
			s = append(s, l)
		}
		stacks = append(stacks, s)
	}
	return stacks
}

// build returns the stack over a tally over tr.
func buildStack(stack []layerSpec, n int) func(*telemetry.Recorder, cluster.Transport) cluster.Transport {
	return func(rec *telemetry.Recorder, tr cluster.Transport) cluster.Transport {
		tr = &tally{Layer: cluster.Layer{Transport: tr}}
		for _, l := range stack {
			tr = l.wrap(tr, n, rec)
		}
		return tr
	}
}

// TestRandomStacksPinned pins what randomStacks do to every packet:
// inbox bytes, Send results and telemetry, over 16 ticks of Sends and
// three more to drain the delays.
func TestRandomStacksPinned(t *testing.T) {
	const n, perTick = 8, 6
	want := []string{
		"c3d782120cec2258",
		"fc045fc1e2be98e8",
		"61c12190b752ff36",
		"499966a63468784b",
		"c4ed0c91d7119837",
		"e4f5706ce5e7b4c1",
		"63423b124d8bb15a",
		"92ec58339233f1d4",
		"b3b4f1b40f90b472",
		"2d19f78374253bf9",
		"95d2c0128d2d2462",
		"0eec3d326687f15a",
		"342bd9a8457a71d4",
		"c0e534319d3c7700",
		"684f818cf008082a",
		"e1e5d4fb6d703ad9",
		"bed6f4fb5b4f322e",
		"0e64d937caf95f69",
		"13b716da9d25478d",
		"8e5b6ce25238c177",
		"1d362f3c2abb9ab8",
		"179af17cde74fa76",
		"8786bd010375e092",
		"b225f2232894cd29",
		"29e1bb52627893fa",
		"434e556c6347825c",
		"dca5e4c3b6240274",
		"752e27ef8098d03b",
		"57752bd5deea388f",
		"2c54bab2b8b714b1",
		"b8e4060d344c6807",
		"4f9ebbc5136ae73e",
	}
	for i, stack := range randomStacks() {
		run := stackRun{n: n, ticks: 16, perTick: perTick, tail: 3, build: buildStack(stack, n)}
		got := sha(run.transcript(inShards(n, perTick, 1)))[:16]
		if i >= len(want) || got != want[i] {
			t.Errorf("stack %d %v: transcript %s", i, stack, got)
		}
	}
}

// TestScheduleLedger: at every tick of every stack in randomStacks,
// sent from one goroutine and from three at once, each schedule's
// ledger balances — offered plus injected is handed plus dropped plus
// held — and what it says it handed is what reached the tally beneath
// it; the transcript does not depend on the senders' interleaving; and
// Close moves whatever is held to the closed cause.
func TestScheduleLedger(t *testing.T) {
	const n, perTick = 8, 6
	var total cluster.Ledger
	check := func(t *testing.T, tr cluster.Transport) {
		t.Helper()
		for u := tr; u != nil; {
			if s, ok := u.(*cluster.Schedule); ok {
				l := s.Ledger()
				var drops int64
				for _, d := range l.Dropped {
					drops += d
				}
				if l.Offered+l.Injected != l.Handed+drops+l.Held {
					t.Fatalf("ledger does not balance: %+v", l)
				}
				if got := s.Unwrap().(*tally).n.Load(); got != l.Handed {
					t.Fatalf("ledger handed %d packets, the tally beneath counted %d", l.Handed, got)
				}
			}
			w, ok := u.(interface{ Unwrap() cluster.Transport })
			if !ok {
				break
			}
			u = w.Unwrap()
		}
	}
	for i, stack := range randomStacks() {
		var serial string
		for _, shards := range []int{1, 3} {
			var top cluster.Transport
			run := stackRun{n: n, ticks: 16, perTick: perTick, tail: 3, build: buildStack(stack, n),
				each: func(_ int, tr cluster.Transport) { top = tr; check(t, tr) }}
			got := run.transcript(inShards(n, perTick, shards))
			if shards == 1 {
				serial = got
			} else if got != serial {
				t.Errorf("stack %d %v: three senders at once diverge from one", i, stack)
			}
			if s, ok := top.(*cluster.Schedule); ok {
				held := s.Ledger().Held
				before := s.Ledger().Dropped[cluster.DropClosed]
				top.Close()
				l := s.Ledger()
				if l.Held != 0 || l.Dropped[cluster.DropClosed] != before+held {
					t.Errorf("stack %d: Close left %+v of %d held", i, l, held)
				}
				check(t, top)
				total.Offered += l.Offered
				total.Injected += l.Injected
				total.Held += held
				for c, d := range l.Dropped {
					total.Dropped[c] += d
				}
			}
		}
	}
	for _, c := range []cluster.Cause{cluster.DropLoss, cluster.DropPartition, cluster.DropAdversary, cluster.DropClosed} {
		if total.Dropped[c] == 0 {
			t.Errorf("no stack dropped a packet for cause %d: %+v", c, total)
		}
	}
	if total.Injected == 0 || total.Held == 0 {
		t.Errorf("no stack injected or held a packet: %+v", total)
	}
}

// TestSendAfterCloseDrops: a closed transport drops and reports false,
// through every constructor and a full stack alike, and releases
// nothing it held.
func TestSendAfterCloseDrops(t *testing.T) {
	const n = 4
	complete := graphAdversary{}
	for name, wrap := range map[string]func(*telemetry.Recorder, cluster.Transport) cluster.Transport{
		"loss": func(_ *telemetry.Recorder, tr cluster.Transport) cluster.Transport {
			return cluster.WithLoss(tr, 0.01, 1)
		},
		"delay": func(_ *telemetry.Recorder, tr cluster.Transport) cluster.Transport {
			return cluster.WithDelay(tr, 1, 1, 1)
		},
		"reorder": func(_ *telemetry.Recorder, tr cluster.Transport) cluster.Transport {
			return cluster.WithReorder(tr, 0.99, 1)
		},
		"partition": func(_ *telemetry.Recorder, tr cluster.Transport) cluster.Transport {
			return cluster.WithPartition(tr, func(int, int) bool { return false })
		},
		"mutator": func(rec *telemetry.Recorder, tr cluster.Transport) cluster.Transport {
			return hostile.WithMutator(tr, hostile.MutationSpec{Dup: 0.3, Xgen: 0.6}, 1, rec)
		},
		"adversary": func(rec *telemetry.Recorder, tr cluster.Transport) cluster.Transport {
			return hostile.WithAdversary(tr, complete, rec)
		},
		"full stack": buildStack(randomStacks()[2], n),
	} {
		rec := telemetry.New(telemetry.Config{Nodes: n})
		inner := &tally{Layer: cluster.Layer{Transport: cluster.NewChanTransport(n, 64)}}
		tr := wrap(rec, inner)
		for i := 0; i < 20; i++ {
			tr.Send(i%n, (i+1)%n, wire.NewHello(i%n, i+1, wire.Hello{}).Marshal())
		}
		tr.Close()
		before := inner.n.Load()
		for i := 0; i < 20; i++ {
			if tr.Send(i%n, (i+1)%n, wire.NewHello(i%n, i+1, wire.Hello{}).Marshal()) {
				t.Errorf("%s: Send %d after Close reported true", name, i)
			}
		}
		for tick := int64(1); tick <= 4; tick++ {
			cluster.ObserveTick(tr, tick)
		}
		if got := inner.n.Load(); got != before {
			t.Errorf("%s: %d packets reached the inner transport after Close", name, got-before)
		}
	}
}

// graphAdversary serves the complete graph on four nodes.
type graphAdversary struct{}

func (graphAdversary) Graph(int, []dynnet.Node) *graph.Graph {
	g := graph.New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestLossSendDoesNotAllocate: the benchmark puts a one-rule loss
// schedule on the path of every Send.
func TestLossSendDoesNotAllocate(t *testing.T) {
	tr := cluster.WithLoss(cluster.NewChanTransport(2, 1), 0.3, 1)
	pkt := []byte{1}
	if got := testing.AllocsPerRun(1000, func() { tr.Send(0, 1, pkt) }); got != 0 {
		t.Errorf("a lossy Send allocates %.1f times", got)
	}
}

// TestReleaseAfterInnerTick: the due-queue is released after the tick
// has reached the transport below, so a packet held above a plain layer
// meets the adversary beneath it with the new tick's topology, as it
// did when every fault was a layer of its own.
func TestReleaseAfterInnerTick(t *testing.T) {
	const n, perTick = 8, 6
	stack := []layerSpec{{kind: "adversary", adv: "rotating-path", seed: 3}, {kind: "plain"}, {kind: "delay", min: 1, max: 2, seed: 5}}
	run := stackRun{n: n, ticks: 16, perTick: perTick, tail: 3, build: buildStack(stack, n)}
	const want = "9d3de3a102c74faa263333c106ccd56963bc7d9107fb27c4d8b762fc0519a662"
	if got := sha(run.transcript(inShards(n, perTick, 1))); got != want {
		t.Errorf("transcript sha256 %s, want %s", got, want)
	}
}
