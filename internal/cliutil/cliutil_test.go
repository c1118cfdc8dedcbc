package cliutil

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stream"
)

// validateGossip runs GossipFlags.Validate over the given knobs.
func validateGossip(n, k, payload, fanout int, loss, reorder float64) error {
	return (&GossipFlags{N: n, K: k, Payload: payload, Fanout: fanout, Loss: loss, Reorder: reorder}).Validate()
}

func TestValidateGossip(t *testing.T) {
	if err := validateGossip(2, 1, 1, 1, 0, 0); err != nil {
		t.Fatalf("minimal valid flags rejected: %v", err)
	}
	cases := []struct {
		name                  string
		n, k, payload, fanout int
		loss, reorder         float64
		want                  string
	}{
		{"n", 1, 4, 32, 2, 0, 0, "-n"},
		{"k", 8, 0, 32, 2, 0, 0, "-k"},
		{"payload", 8, 4, 0, 2, 0, 0, "-payload"},
		{"fanout", 8, 4, 32, 0, 0, 0, "-fanout"},
		{"fanout equals n", 8, 4, 32, 8, 0, 0, "-fanout"},
		{"fanout above n", 4, 4, 32, 9, 0, 0, "-fanout"},
		{"loss low", 8, 4, 32, 2, -0.1, 0, "-loss"},
		{"loss high", 8, 4, 32, 2, 1, 0, "-loss"},
		{"reorder low", 8, 4, 32, 2, 0, -1, "-reorder"},
		{"reorder high", 8, 4, 32, 2, 0, 1.2, "-reorder"},
	}
	for _, tc := range cases {
		err := validateGossip(tc.n, tc.k, tc.payload, tc.fanout, tc.loss, tc.reorder)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v does not name %q", tc.name, err, tc.want)
		}
	}
}

func TestParseTransport(t *testing.T) {
	if ls, err := ParseTransport("chan"); err != nil || ls {
		t.Errorf("chan -> %v, %v", ls, err)
	}
	if ls, err := ParseTransport("lockstep"); err != nil || !ls {
		t.Errorf("lockstep -> %v, %v", ls, err)
	}
	if _, err := ParseTransport("smoke-signals"); err == nil {
		t.Error("unknown transport accepted")
	}
}

func TestValidateGossipFanoutBoundary(t *testing.T) {
	// fanout = n-1 is the largest sensible value and must pass.
	if err := validateGossip(8, 4, 32, 7, 0, 0); err != nil {
		t.Errorf("fanout n-1 rejected: %v", err)
	}
}

func TestValidateShards(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		if err := ValidateShards(shards, 8); err != nil {
			t.Errorf("shards=%d n=8 rejected: %v", shards, err)
		}
	}
	for _, shards := range []int{0, -1, 9, 100} {
		if err := ValidateShards(shards, 8); err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("shards=%d n=8: err %v does not name -shards", shards, err)
		}
	}
}

func TestParseChurnFlag(t *testing.T) {
	sched, err := ParseChurnFlag("join:10:1,crash:20:1")
	if err != nil || sched == nil || len(sched.Events) != 2 {
		t.Fatalf("valid churn flag -> %+v, %v", sched, err)
	}
	if sched, err := ParseChurnFlag(""); sched != nil || err != nil {
		t.Errorf("empty churn flag -> %v, %v; want nil, nil", sched, err)
	}
	if _, err := ParseChurnFlag("meteor:10:1"); err == nil || !strings.Contains(err.Error(), "-churn") {
		t.Errorf("bad churn flag: err %v does not name -churn", err)
	}
}

func TestValidateHostPort(t *testing.T) {
	for _, v := range []string{"127.0.0.1:9000", "localhost:0", ":9000", "[::1]:80"} {
		if err := ValidateHostPort("-addr", v); err != nil {
			t.Errorf("%q rejected: %v", v, err)
		}
	}
	for _, v := range []string{"", "127.0.0.1", "nonsense", "host:port:extra", "[::1]"} {
		err := ValidateHostPort("-bootstrap", v)
		if err == nil || !strings.Contains(err.Error(), "-bootstrap") {
			t.Errorf("%q: err %v does not name -bootstrap", v, err)
		}
	}
}

func TestValidateNodeID(t *testing.T) {
	if err := ValidateNodeID(0, 4); err != nil {
		t.Errorf("id 0 rejected: %v", err)
	}
	if err := ValidateNodeID(3, 4); err != nil {
		t.Errorf("id n-1 rejected: %v", err)
	}
	for _, id := range []int{-1, 4, 100} {
		err := ValidateNodeID(id, 4)
		if err == nil || !strings.Contains(err.Error(), "-id") {
			t.Errorf("id %d: err %v does not name -id", id, err)
		}
	}
}

func TestParseMode(t *testing.T) {
	if stream, err := ParseMode("cluster"); err != nil || stream {
		t.Errorf("cluster -> %v, %v", stream, err)
	}
	if stream, err := ParseMode("stream"); err != nil || !stream {
		t.Errorf("stream -> %v, %v", stream, err)
	}
	for _, v := range []string{"", "Cluster", "both"} {
		if _, err := ParseMode(v); err == nil || !strings.Contains(err.Error(), "-mode") {
			t.Errorf("%q: err %v does not name -mode", v, err)
		}
	}
}

// inProcess are small valid flags for an in-process lockstep run.
func inProcess() GossipFlags {
	return GossipFlags{
		N: 8, K: 4, Payload: 32, Fanout: 2, Shards: 1, Transport: "lockstep", Seed: 1,
		Interval: 500 * time.Microsecond, Timeout: 30 * time.Second,
	}
}

// TestWrapHostileValidation pins the checks of the loss/reorder/delay
// knobs that precede every Wrap — Validate's, which Open and cmd/node
// both run first — and Wrap's identity on zero knobs.
func TestWrapHostileValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*GossipFlags)
		want string
	}{
		{"negative delay", func(g *GossipFlags) { g.Delay = -time.Millisecond }, "-delay"},
		{"reorder high", func(g *GossipFlags) { g.Reorder = 1 }, "-reorder"},
		{"loss high", func(g *GossipFlags) { g.Loss = 1.5 }, "-loss"},
	}
	for _, tc := range cases {
		g := inProcess()
		tc.mut(&g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v does not name %q", tc.name, err, tc.want)
		}
	}
	// Zero knobs must pass the transport through untouched.
	var base cluster.Transport = cluster.NewChanTransport(2, 1)
	defer base.Close()
	tr, err := (&GossipFlags{Seed: 1}).Wrap(base, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr != base {
		t.Error("zero-knob Wrap wrapped the transport anyway")
	}
}

// TestDelayLowersToTicks: -delay is a duration and the delay layer
// counts the driver's ticks, so the flags lower it in units of
// -interval — 2ms at 500µs is at most 4 ticks, whatever -transport is —
// and a delayed run is one both drivers accept and finish.
func TestDelayLowersToTicks(t *testing.T) {
	g := inProcess()
	g.Delay = 2 * time.Millisecond
	inbox := cluster.NewChanTransport(2, 64)
	tr, err := g.Wrap(inbox, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := map[int]int{}
	for round := 0; round < 40; round++ {
		sent := int64(10 * round)
		cluster.ObserveTick(tr, sent)
		tr.Send(0, 1, []byte{1})
		for d := 0; d <= 6; d++ {
			if d > 0 {
				cluster.ObserveTick(tr, sent+int64(d))
			}
			arrivals[d] += len(inbox.Recv(1))
			for len(inbox.Recv(1)) > 0 {
				<-inbox.Recv(1)
			}
		}
	}
	if arrivals[4] == 0 || arrivals[5]+arrivals[6] != 0 || arrivals[0]+arrivals[1]+arrivals[2]+arrivals[3]+arrivals[4] != 40 {
		t.Errorf("-delay 2ms -interval 500us: arrivals by ticks of latency %v, want all 40 within 4 and some at 4", arrivals)
	}

	g.Interval = 0
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "-interval") {
		t.Errorf("-delay without a positive -interval: err %v, want one naming -interval", err)
	}

	for _, transport := range []string{"chan", "lockstep"} {
		g := inProcess()
		g.Transport, g.Delay, g.Reorder, g.Loss = transport, 2*time.Millisecond, 0.2, 0.3
		cfg, err := g.Open(nil)
		if err != nil {
			t.Fatalf("-transport %s -delay 2ms rejected: %v", transport, err)
		}
		res, err := cluster.Run(context.Background(), cfg, g.Tokens())
		if err != nil || !res.Completed {
			t.Errorf("-transport %s -delay 2ms: completed=%v, err %v", transport, res.Completed, err)
		}
	}
}

func TestBuildTransportRejectsNegativeDelay(t *testing.T) {
	// Rejected under both drivers: a negative -delay was silently
	// treated as "no delay" before, unlike every other flag.
	for _, transport := range []string{"chan", "lockstep"} {
		g := inProcess()
		g.Transport, g.Delay = transport, -time.Millisecond
		_, err := g.Open(nil)
		if err == nil || !strings.Contains(err.Error(), "-delay") {
			t.Errorf("-transport %s: negative delay -> err %v, want one naming -delay", transport, err)
		}
	}
}

// TestOpenMatchesLibraryDefaultTransport: the transport a CLI builds
// and the one the library builds for the same run description have the
// same inbox capacity — there is one sizing rule, the engine's, and
// its hello headroom is paid under churn only.
func TestOpenMatchesLibraryDefaultTransport(t *testing.T) {
	// An inbox's capacity is the number of Sends it accepts undrained,
	// whichever fabric (mailbox or channels) the description selects.
	held := func(tr cluster.Transport) (n int) {
		for tr.Send(1, 0, nil) {
			n++
		}
		return n
	}
	for _, tc := range [][2]string{{"lockstep", ""}, {"lockstep", "crash:5:1,join:9:2"}, {"chan", ""}, {"chan", "crash:5:1,join:9:2"}} {
		g := inProcess()
		churn := tc[1]
		g.N, g.Transport, g.Churn = 64, tc[0], churn

		cc, err := g.Open(nil)
		if err != nil {
			t.Fatal(err)
		}
		lib := cluster.Config{N: cc.N, Fanout: cc.Fanout, Churn: cc.Churn, Lockstep: cc.Lockstep}.DefaultTransport(0)
		ccHeld := held(cc.Transport)
		if got, want := ccHeld, held(lib); got != want {
			t.Errorf("cluster, churn %q: CLI inbox holds %d packets, library default %d", churn, got, want)
		}

		sc, err := g.OpenStream(nil, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		slib := stream.Config{N: sc.N, Fanout: sc.Fanout, Churn: sc.Churn, Lockstep: sc.Lockstep}.DefaultTransport()
		scHeld := held(sc.Transport)
		if got, want := scHeld, held(slib); got != want {
			t.Errorf("stream, churn %q: CLI inbox holds %d packets, library default %d", churn, got, want)
		}
		if churn == "" {
			// The exact no-overflow bound: 64 senders × 2 data packets
			// (+ 64 acks on the stream), plus one.
			if got := ccHeld; got != 129 {
				t.Errorf("cluster n=64 inbox holds %d packets, want 129", got)
			}
			if got := scHeld; got != 193 {
				t.Errorf("stream n=64 inbox holds %d packets, want 193", got)
			}
		}
	}
}

// TestOpenSocketRunIgnoresInProcessFlags: over a socket (cmd/node)
// the in-process flags are not consulted — they are zero there — and
// the description stays one RunSingle accepts.
func TestOpenSocketRunIgnoresInProcessFlags(t *testing.T) {
	var socket cluster.Transport = cluster.NewChanTransport(2, 1)
	defer socket.Close()
	g := GossipFlags{N: 2, K: 4, Payload: 32, Fanout: 1, Seed: 1, Interval: time.Millisecond, Timeout: time.Second}
	cfg, err := g.Open(socket)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Transport != socket {
		t.Error("zero-knob socket run wrapped the socket anyway")
	}
	if cfg.Lockstep || cfg.Shards != 0 || cfg.MaxTicks != 0 || cfg.Churn != nil {
		t.Errorf("socket run carries in-process fields: %+v", cfg)
	}
}
