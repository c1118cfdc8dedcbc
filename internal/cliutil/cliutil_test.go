package cliutil

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stream"
	"repro/internal/wire"
)

// validateGossip runs GossipFlags.Validate over the given knobs.
func validateGossip(n, k, payload, fanout int, loss, reorder float64) error {
	return (&GossipFlags{N: n, K: k, Payload: payload, Fanout: fanout, Loss: loss, Reorder: reorder}).Validate()
}

func TestValidateGossip(t *testing.T) {
	if err := validateGossip(2, 1, 1, 1, 0, 0); err != nil {
		t.Fatalf("minimal valid flags rejected: %v", err)
	}
	if err := validateGossip(8, 4, wire.MaxVecBits-64-4, 2, 0, 0); err != nil {
		t.Errorf("a coded packet of exactly the codec's cap rejected: %v", err)
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
		{"payload past the codec's cap", 8, 4, wire.MaxVecBits - 64 - 3, 2, 0, 0, "-payload"},
	}
	for _, tc := range cases {
		err := validateGossip(tc.n, tc.k, tc.payload, tc.fanout, tc.loss, tc.reorder)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v does not name %q", tc.name, err, tc.want)
		}
	}
}

func TestParseTransport(t *testing.T) {
	g := GossipFlags{N: 8, K: 4, Payload: 32, Fanout: 2, Shards: 1}
	for transport, lockstep := range map[string]bool{"chan": false, "lockstep": true} {
		g.Transport = transport
		if cfg, err := g.Open(nil); err != nil || cfg.Lockstep != lockstep {
			t.Errorf("-transport %s -> lockstep %v, %v", transport, cfg.Lockstep, err)
		}
	}
	g.Transport = "smoke-signals"
	if _, err := g.Open(nil); err == nil || !strings.Contains(err.Error(), "-transport") {
		t.Errorf("unknown transport: err %v does not name -transport", err)
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
	g := GossipFlags{N: 8, K: 4, Payload: 32, Fanout: 2, Transport: "lockstep", Shards: 1, Churn: "join:10:1,crash:20:1"}
	if cfg, err := g.Open(nil); err != nil || cfg.Churn == nil || len(cfg.Churn.Events) != 2 {
		t.Fatalf("valid churn flag -> %+v, %v", cfg.Churn, err)
	}
	g.Churn = ""
	if cfg, err := g.Open(nil); cfg.Churn != nil || err != nil {
		t.Errorf("empty churn flag -> %v, %v; want nil, nil", cfg.Churn, err)
	}
	// The last schedule's joins leave -n 8 no room in the wire's sender
	// ids: rejected before anything is sized by the id space.
	for _, bad := range []string{"meteor:10:1", "join:5:9223372036854775807,join:6:1", "join:5:100000000000", "join:5:4294967290"} {
		g.Churn = bad
		if _, err := g.Open(nil); err == nil || !strings.Contains(err.Error(), "-churn") {
			t.Errorf("-churn %s: err %v does not name -churn", bad, err)
		}
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
// both run first — and of the limits, where a negative value is an
// error and not the default in disguise; and Wrap's identity on zero
// knobs.
func TestWrapHostileValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*GossipFlags)
		want string
	}{
		{"negative delay", func(g *GossipFlags) { g.Delay = -time.Millisecond }, "-delay"},
		{"reorder high", func(g *GossipFlags) { g.Reorder = 1 }, "-reorder"},
		{"loss high", func(g *GossipFlags) { g.Loss = 1.5 }, "-loss"},
		{"negative interval", func(g *GossipFlags) { g.Interval = -time.Millisecond }, "-interval"},
		{"negative timeout", func(g *GossipFlags) { g.Timeout = -5 * time.Second }, "-timeout"},
		{"negative maxticks", func(g *GossipFlags) { g.MaxTicks = -3 }, "-maxticks"},
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
	// The CLI's fabric is the library default, sized by the same rule.
	// A channel inbox shows its capacity as the Sends it accepts
	// undrained; the tick mailbox refuses only on mail carried past a
	// tick, which no Send can show, so it is compared whole.
	held := func(tr cluster.Transport) (n int) {
		if _, ok := tr.(*cluster.ChanTransport); !ok {
			return -1
		}
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
		if ccHeld < 0 && !reflect.DeepEqual(cc.Transport, lib) {
			t.Errorf("cluster, churn %q: the CLI's mailbox is not the library default", churn)
		}
		if got, want := ccHeld, held(lib); got != want {
			t.Errorf("cluster, churn %q: CLI inbox holds %d packets, library default %d", churn, got, want)
		}

		sc, err := g.OpenStream(nil, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		slib := stream.Config{N: sc.N, Fanout: sc.Fanout, Churn: sc.Churn, Lockstep: sc.Lockstep}.DefaultTransport()
		scHeld := held(sc.Transport)
		if scHeld < 0 && !reflect.DeepEqual(sc.Transport, slib) {
			t.Errorf("stream, churn %q: the CLI's mailbox is not the library default", churn)
		}
		if got, want := scHeld, held(slib); got != want {
			t.Errorf("stream, churn %q: CLI inbox holds %d packets, library default %d", churn, got, want)
		}
		if churn == "" && tc[0] == "chan" {
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
