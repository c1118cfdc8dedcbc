package cluster

// The driver contracts, tested without RLNC in the way: the protocol
// here is a counter that is done after `need` absorbed packets, so
// what the assertions see is the engine's — completion accounting
// under churn, the order of membership side effects, churn-phase
// hellos ahead of the emit phase, shard-count invariance — and nothing
// else.

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gf"
	"repro/internal/token"
	"repro/internal/wire"
)

// counter is done after need absorbs, and says so every slot.
type counter struct {
	nd        *Node
	need, got int
}

func (c *counter) Start() {}

func (c *counter) Absorb(p *wire.Packet) bool {
	c.nd.M.PacketsIn++
	c.nd.View.Mark(int(p.Env.Sender), c.nd.Now)
	c.got++
	return true
}

func (c *counter) Emit(bool) {
	nd := c.nd
	for f := 0; f < nd.Fanout; f++ {
		nd.Tx.Env = wire.Envelope{Version: wire.Version, Type: wire.TypeToken, Sender: uint32(nd.ID), Epoch: uint32(c.got)}
		nd.Tx.Token = token.Token{UID: token.NewUID(nd.ID, c.got), Payload: gf.NewBitVec(8)}
		peer := nd.Pick()
		if peer < 0 {
			return
		}
		nd.Send(peer)
	}
}

func (c *counter) Done() bool                      { return c.got >= c.need }
func (c *counter) Progress() (rank, watermark int) { return c.got, 0 }
func (c *counter) Restart()                        {}
func (c *counter) Leave()                          {}

// probe watches every Send on its way to the inboxes. It embeds Layer,
// not a bare Transport, so the lockstep driver finds the default
// fabric's mailbox beneath it.
type probe struct {
	Layer
	nodes []NodeMetrics

	mu   sync.Mutex
	tick int64
	// log is the send transcript: "tick from>to type", in Send order.
	log []string
	// goodbyes counts leaving hellos; late, those sent by a node whose
	// liveness had already flipped.
	goodbyes, late int
}

// ObserveTick locks: under the async driver the clock goroutine calls
// it concurrently with the nodes' Sends.
func (p *probe) ObserveTick(tick int64) {
	p.mu.Lock()
	p.tick = tick
	p.mu.Unlock()
}

func (p *probe) Send(from, to int, pkt []byte) bool {
	p.mu.Lock()
	var h wire.Packet
	if wire.Type(pkt[1]) == wire.TypeHello && wire.UnmarshalInto(&h, pkt) == nil && h.Hello.Leaving {
		p.goodbyes++
		if !p.nodes[from].Live {
			p.late++
		}
	}
	p.log = append(p.log, fmt.Sprintf("%d %d>%d %d", p.tick, from, to, pkt[1]))
	p.mu.Unlock()
	return p.Transport.Send(from, to, pkt)
}

// counterRun drives the counter protocol through one churn script:
// a join, a graceful leave, and a crash whose restart is scheduled
// long after everyone else has finished.
func counterRun(t *testing.T, cfg Config) (Outcome, []NodeMetrics, *probe) {
	t.Helper()
	sched, err := ParseChurn("join:3:1,leave:5:1,crash:6:1,restart:30:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.N, cfg.Seed, cfg.Churn = 6, 11, sched
	nodes := make([]NodeMetrics, cfg.MaxNodes())
	pr := &probe{Layer: Layer{cfg.DefaultTransport(0)}, nodes: nodes}
	cfg.Transport = pr
	eng := Engine{
		New:     func(nd *Node, _ bool) Protocol { return &counter{nd: nd, need: 1} },
		Metrics: func(id int) *NodeMetrics { return &nodes[id] },
	}
	res, err := eng.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed = 0
	return res, nodes, pr
}

func TestEngineDriverContracts(t *testing.T) {
	const restartAt = 30
	serial, serialNodes, serialProbe := counterRun(t, Config{Lockstep: true})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"lockstep", Config{Lockstep: true}},
		{"lockstep shards=2", Config{Lockstep: true, Shards: 2}},
		{"async", Config{Interval: time.Millisecond, Timeout: 20 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, nodes, pr := counterRun(t, tc.cfg)
			if !res.Completed {
				t.Fatal("run did not complete")
			}
			// The joiner is id 6; the restarted node is whoever re-entered
			// at the restart's time, the leaver whoever is gone for good.
			joiner, restarted, left := &nodes[6], -1, -1
			for id, m := range nodes {
				switch {
				case m.JoinTick >= restartAt: // exactly restartAt under lockstep; a late ticker can skip a tick
					restarted = id
				case !m.Live:
					left = id
				}
			}
			if !joiner.Spawned || !joiner.Live || !joiner.Done {
				t.Errorf("joiner %+v: want spawned, live and done", *joiner)
			}
			if restarted < 0 || left < 0 || res.FinalLive != 6 {
				t.Fatalf("restarted %d, left %d, %d live at the end: script not applied", restarted, left, res.FinalLive)
			}

			// A run cannot complete while adds are pending, and the
			// restart of a node that was done before it crashed closes it.
			rm := nodes[restarted]
			if !rm.Live || !rm.Done {
				t.Errorf("restarted node %+v: want live and done", rm)
			}
			if tc.cfg.Lockstep {
				for id, m := range nodes {
					if m.DoneTick >= restartAt {
						t.Fatalf("node %d done at tick %d: the scenario needs everyone done before the restart", id, m.DoneTick)
					}
				}
				if res.Ticks != restartAt || rm.JoinTick != restartAt {
					t.Errorf("run closed at tick %d, restart at %d: want both %d", res.Ticks, rm.JoinTick, restartAt)
				}
			}

			// The leaver's goodbye burst is sent before liveness flips.
			if pr.goodbyes == 0 || pr.late != 0 || int64(pr.goodbyes) > nodes[left].HellosOut {
				t.Errorf("%d goodbyes, %d after the leaver's liveness flipped, leaver sent %d hellos",
					pr.goodbyes, pr.late, nodes[left].HellosOut)
			}

			if !tc.cfg.Lockstep {
				return
			}
			// Churn-phase hellos go out in the churn phase: the joiner's
			// burst reaches the fabric before anything the tick's emit
			// phase sends, at every shard count.
			var atJoin []string
			for _, line := range pr.log {
				if line[:2] == "3 " {
					atJoin = append(atJoin, line)
				}
			}
			for i := 0; i < 6; i++ {
				if want := fmt.Sprintf("3 6>%d %d", i, wire.TypeHello); i >= len(atJoin) || atJoin[i] != want {
					t.Fatalf("send %d of the join tick is %q, want the burst's %q", i, atJoin[:min(i+1, len(atJoin))], want)
				}
			}
			// Shards change nothing observable. The emit phase's senders
			// interleave, so the transcript is compared per tick and sender.
			if !reflect.DeepEqual(res, serial) || !reflect.DeepEqual(nodes, serialNodes) || !reflect.DeepEqual(bySender(pr.log), bySender(serialProbe.log)) {
				t.Errorf("diverges from the serial engine:\n%+v\n%+v", res, serial)
			}
		})
	}
}

// bySender orders a probe log by tick and sender, keeping each sender's
// Sends of a tick in their order.
func bySender(log []string) []string {
	key := func(line string) (tick, from int) {
		fmt.Sscanf(line, "%d %d>", &tick, &from)
		return tick, from
	}
	out := slices.Clone(log)
	slices.SortStableFunc(out, func(a, b string) int {
		ta, fa := key(a)
		tb, fb := key(b)
		return cmp.Or(cmp.Compare(ta, tb), cmp.Compare(fa, fb))
	})
	return out
}
