package cluster

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// tickOf runs one mailbox barrier the way runLockstep does — sort, the
// listed ids take their inboxes (nil'ing the slots), carry — and
// returns what each taker got, first bytes only.
func tickOf(m *mailbox, takers ...int) map[int]string {
	got := map[int]string{}
	m.sort()
	for _, id := range takers {
		var s []byte
		box := m.take(id)
		for i, raw := range box {
			box[i] = nil
			s = append(s, raw[0])
		}
		got[id] = string(s)
	}
	m.carry()
	return got
}

// TestMailboxFIFOPerDestination: an inbox is the tick's mail by
// ascending sender id, each sender's in its Send order, whatever order
// the senders called in.
func TestMailboxFIFOPerDestination(t *testing.T) {
	m := newMailbox(3, 8, 2)
	for _, s := range []struct {
		from, to int
		b        byte
	}{{0, 2, 'a'}, {1, 0, 'p'}, {2, 2, 'b'}, {0, 0, 'q'}, {1, 2, 'c'}, {2, 0, 'r'}, {0, 2, 'd'}} {
		if !m.Send(s.from, s.to, []byte{s.b}) {
			t.Fatalf("send %c refused", s.b)
		}
	}
	got := tickOf(m, 0, 1, 2)
	if want := map[int]string{0: "qpr", 1: "", 2: "adcb"}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want each destination's mail by sender, in each sender's order %v", got, want)
	}
	for i, raw := range m.slab {
		if raw != nil {
			t.Errorf("slab slot %d still pins a delivered buffer", i)
		}
	}
}

// TestMailboxCapacityBoundsAndClose: a Send is refused once the
// destination's carried backlog reaches buffer, never on account of the
// tick's own mail, so no Send of a phase can change whether another is
// refused.
func TestMailboxCapacityBoundsAndClose(t *testing.T) {
	const buffer = 3
	m := newMailbox(2, buffer, 1)
	for i := 0; i <= buffer; i++ {
		if !m.Send(0, 1, []byte{byte(i)}) {
			t.Fatalf("send %d of %d refused with nothing carried", i+1, buffer+1)
		}
	}
	tickOf(m, 0) // id 1 does not drain: four carried
	if m.Send(0, 1, []byte{9}) {
		t.Errorf("send accepted with %d carried: the inbox refuses at buffer %d", buffer+1, buffer)
	}
	if !m.Send(1, 0, []byte{9}) {
		t.Error("a full inbox refused mail for another id")
	}
	tickOf(m, 1)
	if !m.Send(0, 1, []byte{9}) {
		t.Error("send refused after the inbox was drained")
	}
	for _, to := range []int{-1, 2, 1 << 20} {
		if m.Send(0, to, []byte{9}) {
			t.Errorf("send to out-of-range id %d accepted", to)
		}
	}
	if m.Send(2, 0, []byte{9}) {
		t.Error("send from an out-of-range id accepted")
	}
	if m.Recv(0) != nil {
		t.Error("the mailbox has no channels; Recv must say so with nil")
	}
	m.Close()
	m.Close() // idempotent
	if m.Send(1, 0, []byte{9}) {
		t.Error("send accepted after Close")
	}
}

// TestMailboxCarriesUndrainedMail: mail for an id nobody drains — a
// crashed node — survives ticks in order ahead of anything newer, keeps
// counting against the id's capacity, and is all there for a restart.
func TestMailboxCarriesUndrainedMail(t *testing.T) {
	m := newMailbox(3, 3, 1)
	m.Send(0, 1, []byte{'a'})
	m.Send(0, 2, []byte{'x'})
	m.Send(2, 1, []byte{'b'})
	if got := tickOf(m, 0, 2); got[2] != "x" {
		t.Fatalf("tick 1 delivered %v", got)
	}
	if m.backlog[1] != 2 {
		t.Fatalf("undrained id holds %d, want 2", m.backlog[1])
	}
	m.Send(2, 1, []byte{'c'})
	m.Send(0, 2, []byte{'y'})
	m.Send(0, 1, []byte{'d'})
	if got := tickOf(m, 0, 2); got[2] != "y" {
		t.Fatalf("tick 2 delivered %v", got)
	}
	if m.Send(0, 1, []byte{'e'}) {
		t.Error("carried mail stopped counting against capacity")
	}
	if got := tickOf(m, 0, 1, 2); got[1] != "abdc" || got[0] != "" || got[2] != "" {
		t.Errorf("restart drained %v, want id 1's carried mail first, each tick's by sender", got)
	}
	if got := tickOf(m, 0, 1, 2); got[1] != "" || len(m.held) != 0 {
		t.Errorf("delivered mail came back: %v, held %d", got, len(m.held))
	}
}

// TestMailboxSteadyStateAllocs: once the log and slab have grown to a
// tick's traffic (with a crashed id's backlog riding along), a tick —
// send, sort, drain, carry — touches the allocator not at all.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	const n = 64
	m := newMailbox(n, 3*n, 2)
	pkt := []byte{1}
	tick := func() {
		for from := 0; from < n; from++ {
			m.Send(from, (from+1)%n, pkt)
			m.Send(from, (from*7+3)%n, pkt)
		}
		m.sort()
		for id := 1; id < n; id++ { // id 0 is down: its mail is carried, then refused
			box := m.take(id)
			for i := range box {
				box[i] = nil
			}
		}
		m.carry()
	}
	for i := 0; i < 3*n; i++ {
		tick()
	}
	if got := testing.AllocsPerRun(50, tick); got != 0 {
		t.Errorf("steady-state tick allocates %.1f times", got)
	}
}

// differentialRun is one seeded lockstep run over the given fabric,
// flattened to everything observable: the Result (every node's counter
// block, Ticks, Dropped) and the full telemetry export, whose inbox
// column is the fabric's own depth reading; backlog reports whether
// that column was ever non-zero.
func differentialRun(t *testing.T, cfg Config, tr Transport, loss float64) (res *Result, trace string, backlog bool) {
	t.Helper()
	cfg.Transport = WithLoss(tr, loss, cfg.Seed+103)
	cfg.Telemetry = telemetry.New(telemetry.Config{Nodes: cfg.MaxNodes()})
	res, err := Run(context.Background(), cfg, testTokens(12, 48, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed = 0
	var b bytes.Buffer
	if err := cfg.Telemetry.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for id := range res.Nodes {
		for _, sm := range cfg.Telemetry.Samples(id) {
			backlog = backlog || sm.Inbox > 0
		}
	}
	return res, b.String(), backlog
}

// slowest is the longest any data packet of an export received before
// the given tick spent in flight, in ticks: each recv is matched to its
// send by (sender, epoch), which one-shot gossip makes unique — the
// epoch is the sender's PacketsOut.
func slowest(trace string, before int64) (ticks int64) {
	type event struct {
		node, tick int64
		kind       string
		a, b, c    int64
	}
	var events []event
	sent := map[[2]int64]int64{}
	for _, line := range strings.Split(trace, "\n") {
		var e event
		if n, _ := fmt.Sscanf(line, "e %d %d %s %d %d %d", &e.node, &e.tick, &e.kind, &e.a, &e.b, &e.c); n == 6 {
			events = append(events, e)
			if e.kind == "send" {
				sent[[2]int64{e.node, e.b}] = e.tick
			}
		}
	}
	for _, e := range events {
		if at, ok := sent[[2]int64{e.a, e.b}]; ok && e.kind == "recv" && e.tick < before {
			ticks = max(ticks, e.tick-at)
		}
	}
	return ticks
}

// TestMailboxMatchesChannels: where the two fabrics' laws coincide — no
// churn, no delay, default capacity, so the only Sends are the emit
// phase's, one node at a time on channels, and nothing is carried or
// refused — a lockstep run over the engine's own fabric and the same run
// over an explicit ChanTransport are indistinguishable: per-node
// counters, ticks, drops, every telemetry event and sample (the inbox
// column included), at every shard count, with and without loss.
// Outside it the mailbox delivers by sender where a channel delivers by
// call, and refuses on the carried backlog only (see mailbox).
func TestMailboxMatchesChannels(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, loss := range []float64{0, 0.2} {
			cfg := Config{N: 14, Fanout: 3, Seed: 41, Lockstep: true, Shards: shards, MaxTicks: 5000}
			name := fmt.Sprintf("shards=%d loss=%v", shards, loss)
			maxN := cfg.MaxNodes()
			got, gotTrace, backlog := differentialRun(t, cfg, cfg.DefaultTransport(0), loss)
			want, wantTrace, _ := differentialRun(t, cfg, NewChanTransport(maxN, DefaultInboxBuffer(maxN, cfg.Fanout)), loss)
			if !got.Completed {
				t.Errorf("%s: run did not complete in %d ticks", name, got.Ticks)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: results diverge:\nmailbox  %+v\nchannels %+v", name, got.Outcome, want.Outcome)
			}
			if gotTrace != wantTrace {
				t.Errorf("%s: telemetry exports diverge (%d vs %d bytes)", name, len(gotTrace), len(wantTrace))
			}
			if !backlog {
				t.Errorf("%s: every inbox sample reads 0; the depth column went untested", name)
			}
		}
	}
}

// TestLockstepDelayBitIdentical: the delay layer keeps no clock and
// starts no goroutine — a due-queue the driver's tick releases — so a
// delayed lockstep run is the same function of its seed at every shard
// count, Result and telemetry export alike, under loss and a schedule
// with crash, join, leave and restart: on the tick mailbox, whose emit
// phase fans out, and on channels, where the nodes emit serially. And
// the delay is really there: without it every packet is drained the
// tick after its send (until a restarted node drains what piled up
// while it was down), under it some spend longer in flight.
func TestLockstepDelayBitIdentical(t *testing.T) {
	sched, err := ParseChurn("crash:4:2,join:6:2,leave:9:1,restart:12:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, loss := range []float64{0, 0.2} {
		base := Config{N: 14, Fanout: 3, Seed: 43, Lockstep: true, MaxTicks: 5000, Churn: sched}
		maxN := base.MaxNodes()
		_, plainTrace, _ := differentialRun(t, base, base.DefaultTransport(0), loss)
		for _, channels := range []bool{false, true} {
			var want *Result
			var wantTrace string
			for _, shards := range []int{1, 2, 4} {
				cfg := base
				cfg.Shards = shards
				fabric := cfg.DefaultTransport(0)
				if channels {
					fabric = NewChanTransport(maxN, DefaultInboxBuffer(maxN, cfg.Fanout+1))
				}
				got, gotTrace, _ := differentialRun(t, cfg, WithDelay(fabric, 0, 4, cfg.Seed+101), loss)
				name := fmt.Sprintf("loss=%v shards=%d channels=%v", loss, shards, channels)
				if !got.Completed {
					t.Errorf("%s: run did not complete in %d ticks", name, got.Ticks)
				}
				if want == nil {
					want, wantTrace = got, gotTrace
					// Not "more ticks than undelayed": a run whose last packets
					// drew short delays can finish on the undelayed run's tick.
					if p, d := slowest(plainTrace, 12), slowest(gotTrace, 12); p != 1 || d <= 1 || d > 1+4 {
						t.Errorf("%s: the slowest packet took %d ticks undelayed and %d under a delay of 0 to 4; want 1 and 2 to 5", name, p, d)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: results diverge from the serial run:\n%+v\n%+v", name, got.Outcome, want.Outcome)
				}
				if gotTrace != wantTrace {
					t.Errorf("%s: telemetry exports diverge (%d vs %d bytes)", name, len(gotTrace), len(wantTrace))
				}
			}
		}
	}
}

// TestRunRejectsUndrivableFabrics: a description whose driver cannot
// drive its transport is an error at Run, not a run that silently is
// not what it claims — the tick mailbox under the async driver, or the
// mailbox hidden from the lockstep driver by a decorator without
// Unwrap.
func TestRunRejectsUndrivableFabrics(t *testing.T) {
	toks := testTokens(2, 16, 1)
	lock := Config{N: 4, Lockstep: true}

	async := Config{N: 4, Timeout: 5 * time.Second, Transport: WithLoss(lock.DefaultTransport(0), 0.1, 2)}
	if _, err := Run(context.Background(), async, toks); err == nil || !strings.Contains(err.Error(), "mailbox") {
		t.Errorf("async run over the tick mailbox: err %v, want one naming the mailbox", err)
	}

	opaque := lock
	opaque.Transport = struct{ Transport }{lock.DefaultTransport(0)}
	if _, err := Run(context.Background(), opaque, toks); err == nil || !strings.Contains(err.Error(), "Unwrap") {
		t.Errorf("lockstep run over a mailbox under an opaque decorator: err %v, want one naming Unwrap", err)
	}
}
