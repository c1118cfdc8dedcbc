package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// sameView fails unless two views answer every query a runtime makes of
// them identically: membership, suspicion at a spread of instants, the
// hello body, and a seeded sequence of peer picks. Their run lists must
// be equal too: a live set has one canonical list.
func sameView(t *testing.T, stage string, ref, got *View, sa int64) {
	t.Helper()
	if !slices.Equal(ref.runs, got.runs) {
		t.Fatalf("%s: runs %v, Mark loop %v", stage, got.runs, ref.runs)
	}
	if ref.LiveCount() != got.LiveCount() {
		t.Fatalf("%s: LiveCount %d, Mark loop %d", stage, got.LiveCount(), ref.LiveCount())
	}
	for id := -1; id <= ref.maxN; id++ {
		if ref.Live(id) != got.Live(id) {
			t.Fatalf("%s: Live(%d) = %v, Mark loop %v", stage, id, got.Live(id), ref.Live(id))
		}
		for _, at := range []int64{0, 3, 3 + sa, 4 + sa, 9 + sa, 40} {
			if ref.eligible(id, at) != got.eligible(id, at) {
				t.Fatalf("%s: eligible(%d, %d) = %v, Mark loop %v", stage, id, at, got.eligible(id, at), ref.eligible(id, at))
			}
		}
	}
	if a, b := ref.AppendPeers(nil), got.AppendPeers(nil); !slices.Equal(a, b) {
		t.Fatalf("%s: AppendPeers %v, Mark loop %v", stage, b, a)
	}
	ra, rb := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		if a, b := ref.Pick(ra, 0), got.Pick(rb, 0); a != b {
			t.Fatalf("%s: pick %d = %d, Mark loop %d", stage, i, b, a)
		}
	}
}

// perturb applies one random membership sequence to both views, so a
// stamp difference the queries above cannot see yet surfaces in what the
// views do next.
func perturb(rng *rand.Rand, maxN int, views ...*View) {
	for step, at := 0, int64(3); step < 12; step++ {
		op, id := rng.Intn(3), rng.Intn(maxN+2)-1
		at += int64(rng.Intn(3))
		for _, v := range views {
			switch op {
			case 0:
				v.Mark(id, at)
			case 1:
				v.Introduce(id, at)
			case 2:
				v.Remove(id)
			}
		}
	}
}

// randomLive draws a live set over maxN ids: a prefix (one run) or an
// arbitrary subset (many), sometimes flagging fewer ids than the id
// space holds.
func randomLive(rng *rand.Rand, maxN int) []bool {
	live := make([]bool, maxN-rng.Intn(2)*rng.Intn(maxN))
	prefix, dense := rng.Intn(len(live)+1), rng.Intn(2) == 0
	for id := range live {
		if dense {
			live[id] = id < prefix
		} else {
			live[id] = rng.Intn(3) > 0
		}
	}
	return live
}

// members builds a run's membership view, self -1, over maxN ids from
// live flags (at most maxN of them): the live set the churner keeps and
// every spawned node clones.
func members(maxN int, live []bool) *View {
	v := NewView(-1, maxN)
	for id, l := range live {
		if l {
			v.Introduce(id, 0)
		}
	}
	return v
}

// bareNode spawns node id of a run whose live set is live, at tick now
// and with no protocol: the shell alone, for the hello tests.
func bareNode(id int, live *View, now int64, tr Transport, m *NodeMetrics) *Node {
	r := &run{
		eng:   Engine{New: func(*Node, bool) Protocol { return nil }, Metrics: func(int) *NodeMetrics { return m }},
		cfg:   Config{Seed: 1, Fanout: 2},
		tr:    tr,
		nodes: make([]*Node, live.maxN),
		live:  live,
	}
	return r.spawn(id, false, now)
}

// TestContactsViewMatchesMarkLoop is the property the O(1) start-up
// rests on: a node's clone of the run's membership is indistinguishable
// from NewView plus one Mark per live id — the loop it replaced —
// whether suspicion was switched on before or after the fill, and stays
// so under whatever membership traffic follows.
func TestContactsViewMatchesMarkLoop(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxN := 1 + rng.Intn(24)
		live := randomLive(rng, maxN)
		self, now, sa := rng.Intn(maxN), int64(rng.Intn(4)), int64(rng.Intn(3)*2)

		ref := NewView(self, maxN)
		if rng.Intn(2) == 0 {
			ref.SuspectAfter = sa
		}
		for id, l := range live {
			if l {
				ref.Mark(id, now)
			}
		}
		ref.SuspectAfter = sa
		got := members(maxN, live).clone(self, now)
		got.SuspectAfter = sa

		sameView(t, "fresh", ref, got, sa)
		perturb(rng, maxN, ref, got)
		sameView(t, "after traffic", ref, got, sa)
	}
}

// TestFillMatchesMarkLoop holds Fill's one interval union to the Mark
// loop it stands for, on fresh views and on views already fragmented by
// earlier traffic, with suspicion on and off.
func TestFillMatchesMarkLoop(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxN := 1 + rng.Intn(24)
		self, sa := rng.Intn(maxN), int64(rng.Intn(3)*2)
		ref, got := NewView(self, maxN), NewView(self, maxN)
		ref.SuspectAfter, got.SuspectAfter = sa, sa
		if rng.Intn(2) == 0 {
			first := members(maxN, randomLive(rng, maxN))
			ref, got = first.clone(self, 2), first.clone(self, 2)
			ref.SuspectAfter, got.SuspectAfter = sa, sa
			perturb(rng, maxN, ref, got)
		}
		n, now := rng.Intn(maxN+3)-1, int64(rng.Intn(12))
		for id := 0; id < n && id < maxN; id++ {
			ref.Mark(id, now)
		}
		got.Fill(n, now)

		sameView(t, "filled", ref, got, sa)
		perturb(rng, maxN, ref, got)
		sameView(t, "after traffic", ref, got, sa)
	}
}

// captureTransport records every accepted Send per recipient.
type captureTransport struct {
	Transport
	got map[int][][]byte
}

func (c *captureTransport) Send(from, to int, pkt []byte) bool {
	c.got[to] = append(c.got[to], pkt)
	return true
}

// TestHelloBurstMarshalsOncePerRecipientCopy pins the buffer-ownership
// rule of the hello burst: every recipient's bytes are the hello's
// canonical encoding, and each is a private copy — a middleware that
// rewrites one in place (hostile's mutator) cannot reach the others.
func TestHelloBurstMarshalsOncePerRecipientCopy(t *testing.T) {
	const maxN, id = 12, 5
	live := make([]bool, maxN)
	for _, p := range []int{0, 2, 3, 5, 8, 11} {
		live[p] = true
	}
	var m NodeMetrics
	tr := &captureTransport{got: map[int][][]byte{}}
	nd := bareNode(id, members(maxN, live), 7, tr, &m)
	nd.helloAll(false)

	peers := []uint32{0, 2, 3, 5, 8, 11}
	want := wire.NewHello(id, 0, wire.Hello{Peers: peers}).Marshal()
	if len(tr.got) != len(peers)-1 || m.HellosOut != int64(len(peers)-1) {
		t.Fatalf("%d recipients, HellosOut %d, want %d", len(tr.got), m.HellosOut, len(peers)-1)
	}
	for to, bufs := range tr.got {
		if to == id || !live[to] || len(bufs) != 1 || !bytes.Equal(bufs[0], want) {
			t.Fatalf("recipient %d got %x, want one copy of %x", to, bufs, want)
		}
	}
	for i := range tr.got[0][0] {
		tr.got[0][0][i] ^= 0xff
	}
	for to, bufs := range tr.got {
		if to != 0 && !bytes.Equal(bufs[0], want) {
			t.Errorf("mutating recipient 0's buffer changed recipient %d's", to)
		}
	}
}

// flipTransport flips one bit of every coded packet's vector on its way
// to node 1.
type flipTransport struct {
	Transport
	bit int
}

func (f *flipTransport) Send(from, to int, pkt []byte) bool {
	if to == 1 && wire.Type(pkt[1]) == wire.TypeCoded {
		pkt[wire.HeaderBytes+8+f.bit/8] ^= 1 << (f.bit % 8)
	}
	return f.Transport.Send(from, to, pkt)
}

// TestVerifyCatchesOneFlippedBit holds the word-wise verification to
// the token-by-token one it replaced: with K=1 node 1 decodes whatever
// its first packet carried, so one flipped UID bit or payload bit in
// its span — and nothing else wrong anywhere — must fail the run.
func TestVerifyCatchesOneFlippedBit(t *testing.T) {
	toks := testTokens(1, 70, 3)
	run := func(tr Transport) error {
		res, err := Run(context.Background(), Config{N: 2, Seed: 1, Lockstep: true, Transport: tr}, toks)
		if err == nil && !res.Completed {
			t.Fatal("run did not complete")
		}
		return err
	}
	if err := run(NewChanTransport(2, 8)); err != nil {
		t.Fatalf("unflipped run: %v", err)
	}
	// Vector layout at K=1: bit 0 the coefficient, 1..64 the UID, then
	// the payload; 134 is the payload's last bit, in the vector's tail word.
	for name, bit := range map[string]int{"uid bit": 1 + 37, "payload bit": 65 + 9, "last payload bit": 134} {
		err := run(&flipTransport{Transport: NewChanTransport(2, 8), bit: bit})
		if err == nil || !strings.Contains(err.Error(), "verification failed") {
			t.Errorf("%s flipped in node 1's span: err = %v, want a verification failure", name, err)
		}
	}
}
