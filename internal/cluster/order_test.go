package cluster_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hostile"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestMiddlewareOrderIndependent: below Node.post, what becomes of a
// packet is a function of its sender's own sends — every layer keys its
// stream, hold-back slot and replay reservoir by sender, the adversary
// fixes the tick's topology when the tick is observed, the tick mailbox
// logs per sender — so the order in which senders reach the stack cannot
// show. Fixed per-sender send sequences go through loss, reorder, delay,
// the mutator and the adaptive adversary over the tick mailbox, with
// every sender publishing a rank before its first Send of a tick (as a
// stream Emit may), interleaved three ways: ascending ids, a seeded
// shuffle of single Sends, and one goroutine per sender — the sharded
// emit phase; run it under -race. Send results, the sorted inboxes and
// each sender's telemetry must agree.
func TestMiddlewareOrderIndependent(t *testing.T) {
	const n, ticks, perTick, seed = 8, 16, 6, 7
	run := func(interleave func(tick int, send func(from int))) string {
		rec := telemetry.New(telemetry.Config{Nodes: n})
		var tr cluster.Transport = cluster.Config{N: n, Lockstep: true}.DefaultTransport(0)
		tr = cluster.WithDelay(tr, 0, 2, seed)
		tr = cluster.WithReorder(tr, 0.2, seed)
		tr = cluster.WithLoss(tr, 0.2, seed)
		tr = hostile.WithMutator(tr, hostile.MutationSpec{hostile.OpDup: 0.1, hostile.OpStale: 0.1, hostile.OpTrunc: 0.1, hostile.OpFlip: 0.1, hostile.OpXgen: 0.1}, seed, rec)
		tr = hostile.WithAdversary(tr, hostile.NewAdaptive(n, seed), rec)
		ranks := make(cluster.Ranks, n)
		cluster.Watch(tr, ranks)
		var b strings.Builder
		results := make([][]bool, n)
		sent := make([]int, n)
		for tick := 1; tick <= ticks; tick++ {
			cluster.ObserveTick(tr, int64(tick))
			clear(sent)
			interleave(tick, func(from int) {
				i := sent[from]
				sent[from]++
				if i == 0 {
					ranks[from] = from * tick % 5
				}
				to := (from + 1 + (tick+i)%(n-1)) % n
				pkt := wire.NewHello(from, tick*perTick+i+1, wire.Hello{}).Marshal()
				results[from] = append(results[from], tr.Send(from, to, pkt))
			})
			for id, box := range cluster.MailboxTick(tr) {
				fmt.Fprintf(&b, "tick %d inbox %d: %x\n", tick, id, box)
			}
		}
		for id := 0; id < n; id++ {
			fmt.Fprintf(&b, "sender %d: %v %v\n", id, results[id], rec.Events(id))
		}
		if c := rec.Counters(); c["events_mutate"] == 0 || c["events_adv_cut"] == 0 {
			t.Errorf("the hostile layers did nothing: %v", c)
		}
		return b.String()
	}

	ascending := run(func(_ int, send func(int)) {
		for from := 0; from < n; from++ {
			for i := 0; i < perTick; i++ {
				send(from)
			}
		}
	})
	shuffled := run(func(tick int, send func(int)) {
		var order []int
		for from := 0; from < n; from++ {
			for i := 0; i < perTick; i++ {
				order = append(order, from)
			}
		}
		rng := rand.New(rand.NewSource(int64(tick)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, from := range order {
			send(from)
		}
	})
	concurrent := run(func(_ int, send func(int)) {
		var wg sync.WaitGroup
		for from := 0; from < n; from++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perTick; i++ {
					send(from)
				}
			}()
		}
		wg.Wait()
	})
	if !strings.Contains(ascending, "true") || !strings.Contains(ascending, "false") {
		t.Fatalf("the stack accepted or refused everything; nothing was tested:\n%s", ascending)
	}
	for name, got := range map[string]string{"shuffled": shuffled, "one goroutine per sender": concurrent} {
		if got != ascending {
			t.Errorf("%s senders diverge from ascending ones:\n--- ascending ---\n%s--- %s ---\n%s", name, ascending, name, got)
		}
	}
}
