package udpnet

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stream"
	"repro/internal/token"
	"repro/internal/wire"
)

// The socket transport must be a drop-in for the in-process ones.
var (
	_ cluster.Transport          = (*Transport)(nil)
	_ cluster.AddressedTransport = (*Transport)(nil)
	_ cluster.Transport          = (*Mesh)(nil)
)

func testTokens(k, d int, seed int64) []token.Token {
	return token.RandomSet(k, d, rand.New(rand.NewSource(seed)))
}

func dialT(t *testing.T, cfg Config) *Transport {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	tr, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// TestSendRecvRoundTrip pushes one wire packet socket-to-socket and
// decodes it intact on the other side.
func TestSendRecvRoundTrip(t *testing.T) {
	a := dialT(t, Config{ID: 0, Nodes: 2})
	b := dialT(t, Config{ID: 1, Nodes: 2})
	a.learn(1, b.advertiseAddr())

	want := wire.NewToken(0, 7, testTokens(1, 64, 1)[0])
	if !a.Send(0, 1, want.Marshal()) {
		t.Fatal("send to known peer refused")
	}
	select {
	case raw := <-b.Recv(1):
		got, err := wire.Unmarshal(raw)
		if err != nil {
			t.Fatalf("received packet rejected: %v", err)
		}
		if got.Env != want.Env || !got.Token.Equal(want.Token) {
			t.Fatalf("packet changed in flight: %+v != %+v", got.Env, want.Env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}
	// The read loop counts a datagram as gossip once the inbox has taken
	// it, which this goroutine can see first.
	s := b.Stats()
	for deadline := time.Now().Add(time.Second); s.Gossip != 1 && time.Now().Before(deadline); s = b.Stats() {
		time.Sleep(time.Millisecond)
	}
	if s.Gossip != 1 || s.Datagrams != 1 {
		t.Errorf("receiver stats %+v, want 1 gossip / 1 datagram", s)
	}
}

// TestSendBounds pins the drop behavior for unroutable sends: unknown
// peers, out-of-range ids and oversized packets all return false
// without touching the socket.
func TestSendBounds(t *testing.T) {
	a := dialT(t, Config{ID: 0, Nodes: 3, MaxPacket: 256})
	if a.Send(0, 1, []byte{1}) {
		t.Error("send to unknown peer accepted")
	}
	if a.Send(0, -1, []byte{1}) || a.Send(0, 3, []byte{1}) {
		t.Error("send to out-of-range id accepted")
	}
	if got := a.Stats().DropUnknownPeer; got != 3 {
		t.Errorf("DropUnknownPeer = %d, want 3", got)
	}
	if a.Send(0, 0, make([]byte, 257)) {
		t.Error("oversized send accepted")
	}
	a.Close()
	if a.Send(0, 0, []byte{1}) {
		t.Error("send after Close accepted")
	}
}

// TestRecvOnlyOwnInbox pins the Recv contract: only this node's id has
// an inbox; every other id gets a nil (forever-blocking) channel.
func TestRecvOnlyOwnInbox(t *testing.T) {
	a := dialT(t, Config{ID: 1, Nodes: 3})
	if a.Recv(1) == nil {
		t.Fatal("own inbox is nil")
	}
	for _, id := range []int{0, 2, -1, 7} {
		if a.Recv(id) != nil {
			t.Errorf("Recv(%d) returned a live channel on node 1's transport", id)
		}
	}
}

// TestBootstrapExchange is the address-book handshake end-to-end over
// real sockets: late joiners learn the whole membership from one
// bootstrap peer's address, without any pre-populated book.
func TestBootstrapExchange(t *testing.T) {
	const n = 4
	boot := dialT(t, Config{ID: 0, Nodes: n})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	trs := []*Transport{boot}
	for id := 1; id < n; id++ {
		tr := dialT(t, Config{ID: id, Nodes: n, Bootstrap: boot.LocalAddr()})
		go tr.BootstrapLoop(ctx, 20*time.Millisecond)
		trs = append(trs, tr)
	}
	for _, tr := range trs[1:] {
		if err := tr.WaitReady(ctx); err != nil {
			t.Fatalf("node %d: %v", tr.ID(), err)
		}
	}
	// The bootstrap node itself converges from the pings it answered.
	if err := boot.WaitReady(ctx); err != nil {
		t.Fatalf("bootstrap node: %v", err)
	}
	for _, tr := range trs {
		for id := 0; id < n; id++ {
			if !tr.Known(id) {
				t.Errorf("node %d does not know node %d after bootstrap", tr.ID(), id)
			}
		}
	}
}

// TestBootstrapConvergenceMidScale runs the real bootstrap exchange —
// announce requests carrying only the sender's own entry, full-book
// responses served from the cached marshal — across 64 sockets. It
// guards the 1k-process scaling fixes: every book must converge even
// though joiners only ever talk to the bootstrap node directly plus
// one round-robin lookup per round.
func TestBootstrapConvergenceMidScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale bootstrap run skipped with -short")
	}
	const n = 64
	boot := dialT(t, Config{ID: 0, Nodes: n})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	trs := []*Transport{boot}
	for id := 1; id < n; id++ {
		tr := dialT(t, Config{ID: id, Nodes: n, Bootstrap: boot.LocalAddr()})
		go tr.BootstrapLoop(ctx, 20*time.Millisecond)
		trs = append(trs, tr)
	}
	for _, tr := range trs {
		if err := tr.WaitReady(ctx); err != nil {
			t.Fatalf("node %d: book %d/%d: %v", tr.ID(), tr.BookSize(), n, err)
		}
	}
	// Books must agree on the advertised addresses, not just be full.
	for _, tr := range trs {
		for id := 0; id < n; id++ {
			if got, want := tr.addrOf(id).String(), trs[id].LocalAddr(); got != want {
				t.Fatalf("node %d has %s for node %d, want %s", tr.ID(), got, id, want)
			}
		}
	}
}

// TestClusterRunOverMesh is the drop-in proof for the in-process
// driver: the full goroutine-per-node cluster runtime disseminates and
// verifies over real loopback sockets with no protocol changes.
func TestClusterRunOverMesh(t *testing.T) {
	const n, k, d = 6, 8, 64
	mesh, err := NewMesh(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(context.Background(),
		cluster.Config{N: n, Seed: 3, Transport: mesh, Timeout: 15 * time.Second},
		testTokens(k, d, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("cluster run over UDP mesh did not complete")
	}
	if s := mesh.Stats(); s.Gossip == 0 {
		t.Error("no datagrams dispatched through the mesh")
	}
}

// TestSingleNodesOverSockets is the multi-process shape minus the
// processes: N RunSingle bodies, each owning its own socket transport,
// discover each other through bootstrap exchange and disseminate till
// every node decodes — the cmd/node integration path in one test.
func TestSingleNodesOverSockets(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	const n, k, d = 4, 8, 64
	toks := testTokens(k, d, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	boot := dialT(t, Config{ID: 0, Nodes: n})
	trs := []*Transport{boot}
	for id := 1; id < n; id++ {
		trs = append(trs, dialT(t, Config{ID: id, Nodes: n, Bootstrap: boot.LocalAddr()}))
	}
	results := make([]cluster.NodeMetrics, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for id, tr := range trs {
		go func(id int, tr *Transport) {
			go tr.BootstrapLoop(ctx, 20*time.Millisecond)
			_ = tr.WaitReady(ctx)
			results[id], errs[id] = cluster.RunSingle(ctx, cluster.Config{
				N: n, Seed: 4, Transport: tr,
				Interval: 2 * time.Millisecond, Timeout: 15 * time.Second,
			}, cluster.Single{ID: id, Linger: time.Second}, toks)
			done <- id
		}(id, tr)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		if !results[id].Done {
			t.Errorf("node %d did not decode (innovative %d)", id, results[id].Innovative)
		}
	}
}

// TestStreamOverMesh drives the streaming runtime over real sockets.
func TestStreamOverMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("socket integration test skipped with -short")
	}
	const n = 4
	mesh, err := NewMesh(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stream.Run(context.Background(), stream.Config{
		N: n, K: 4, PayloadBits: 32, Window: 2, Generations: 4,
		Seed: 5, Transport: mesh, Timeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("stream run over UDP mesh did not complete")
	}
}

// TestDialValidation pins the constructor errors.
func TestDialValidation(t *testing.T) {
	cases := []Config{
		{ID: 0, Nodes: 0, Addr: "127.0.0.1:0"},
		{ID: -1, Nodes: 2, Addr: "127.0.0.1:0"},
		{ID: 2, Nodes: 2, Addr: "127.0.0.1:0"},
		{ID: 0, Nodes: 2, Addr: "not an address"},
	}
	for i, cfg := range cases {
		if tr, err := Dial(cfg); err == nil {
			tr.Close()
			t.Errorf("case %d: no error for %+v", i, cfg)
		}
	}
}

// TestIngressRejectsGarbage feeds malformed datagrams straight through
// a live socket and requires them dropped and accounted, with valid
// traffic still flowing afterwards — the read loop never dies.
func TestIngressRejectsGarbage(t *testing.T) {
	a := dialT(t, Config{ID: 0, Nodes: 2})
	b := dialT(t, Config{ID: 1, Nodes: 2})
	a.learn(1, b.advertiseAddr())

	good := wire.NewToken(0, 1, testTokens(1, 8, 1)[0]).Marshal()
	bad := [][]byte{
		{},
		{0xff},
		{wire.Version, 99, 0, 0, 0, 0, 0, 0, 0, 0},
		good[:5],
		append(append([]byte(nil), good...), 0xcc),
	}
	for _, raw := range bad {
		if _, err := a.conn.WriteToUDP(raw, b.advertiseAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Send(0, 1, good) {
		t.Fatal("valid send refused")
	}
	select {
	case raw := <-b.Recv(1):
		if _, err := wire.Unmarshal(raw); err != nil {
			t.Fatalf("inbox surfaced a malformed packet: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid packet lost behind garbage")
	}
	// Every garbage datagram (including the legal 0-byte one) must land
	// in exactly one reject counter.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := b.Stats()
		rejects := s.DropTruncated + s.DropVersion + s.DropType + s.DropMalformed
		if rejects == int64(len(bad)) {
			if s.DropType != 1 {
				t.Errorf("DropType = %d, want 1; stats %+v", s.DropType, s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejects %d of %d accounted; stats %+v", rejects, len(bad), s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
