package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
)

// flagView is a membership view spelled out per id — one live flag and
// one last-heard stamp each — the form View's run list replaced, kept as
// the reference the model test and FuzzView hold View to.
type flagView struct {
	self  int
	live  []bool
	heard []int64
	sa    int64
}

func (m *flagView) add(id int, now int64, refresh bool) {
	switch {
	case id < 0 || id >= len(m.live):
	case !m.live[id]:
		m.live[id], m.heard[id] = true, now
	case refresh:
		m.heard[id] = max(m.heard[id], now)
	}
}

func (m *flagView) remove(id int) {
	if id >= 0 && id < len(m.live) {
		m.live[id] = false
	}
}

func (m *flagView) has(id int) bool { return id >= 0 && id < len(m.live) && m.live[id] }

// eligible reports whether id is in the view and not suspected at the
// given instant, as EligibleIDs would list it.
func (v *View) eligible(id int, now int64) bool {
	return v.Live(id) && v.unsuspected(id, now)
}

func (m *flagView) eligible(id int, now int64) bool {
	return m.has(id) && (id == m.self || m.sa == 0 || now-m.heard[id] <= m.sa)
}

// peers lists the live ids other than skip, ascending.
func (m *flagView) peers(skip int) []uint32 {
	var ids []uint32
	for id, l := range m.live {
		if l && id != skip {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// checkView fails unless v is in canonical form — runs ascending,
// non-empty, non-adjacent, inside the id space, LiveCount their total —
// and answers every query sameView asks, and the iterator, as m does.
func checkView(t *testing.T, step int, m *flagView, v *View) {
	t.Helper()
	total, prev := 0, -1
	for _, r := range v.runs {
		if r.lo <= prev || r.hi <= r.lo || r.hi > v.maxN {
			t.Fatalf("step %d: runs %v not canonical in [0, %d)", step, v.runs, v.maxN)
		}
		total, prev = total+r.hi-r.lo, r.hi
	}
	all := m.peers(-1)
	if v.LiveCount() != total || total != len(all) {
		t.Fatalf("step %d: LiveCount %d, runs %v hold %d, model %d", step, v.LiveCount(), v.runs, total, len(all))
	}
	if got := v.AppendPeers(nil); !slices.Equal(got, all) {
		t.Fatalf("step %d: AppendPeers %v, model %v", step, got, all)
	}
	for _, at := range []int64{0, 3, 3 + m.sa, 4 + m.sa, 9 + m.sa, 40} {
		var want []int
		for id := -1; id <= v.maxN; id++ {
			if v.Live(id) != m.has(id) {
				t.Fatalf("step %d: Live(%d) = %v", step, id, v.Live(id))
			}
			if v.eligible(id, at) != m.eligible(id, at) {
				t.Fatalf("step %d: eligible(%d, %d) = %v, model %v", step, id, at, v.eligible(id, at), m.eligible(id, at))
			}
			if m.eligible(id, at) {
				want = append(want, id)
			}
		}
		if got := slices.Collect(v.EligibleIDs(at)); !slices.Equal(got, want) {
			t.Fatalf("step %d: EligibleIDs(%d) = %v, model %v", step, at, got, want)
		}
	}
	// Pick is the r-th live id other than self, for the one r it draws.
	others := m.peers(m.self)
	ra, rb := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		want := -1
		if len(others) > 0 {
			want = int(others[ra.Intn(len(others))])
		}
		if got := v.Pick(rb, 0); got != want {
			t.Fatalf("step %d: pick %d = %d, model %d", step, i, got, want)
		}
	}
}

// driveView reads script as a view's shape (id space, owner, suspicion
// threshold) followed by four-byte membership operations — Mark,
// Introduce, a hello's peer list, Remove, Fill, with ids from -1 to past
// the id space and stamps in no order, 64 of them at most — applies each
// to a View and to the per-id model, and compares the two after every
// step.
func driveView(t *testing.T, script []byte) {
	t.Helper()
	if len(script) < 3 {
		return
	}
	maxN := 1 + int(script[0]%24)
	m := &flagView{self: int(script[1]) % maxN, live: make([]bool, maxN), heard: make([]int64, maxN), sa: int64(script[2]%3) * 2}
	v := NewView(m.self, maxN)
	v.SuspectAfter = m.sa
	checkView(t, -1, m, v)
	for step, op := 0, script[3:]; len(op) >= 4 && step < 64; step, op = step+1, op[4:] {
		id, b, now := int(op[1])%(maxN+3)-1, int(op[2]), int64(op[3]%16)
		switch op[0] % 6 {
		case 0:
			v.Mark(id, now)
			m.add(id, now, true)
		case 1:
			v.Introduce(id, now)
			m.add(id, now, false)
		case 2, 3: // a peer list of two stretches, the second anywhere
			var list []uint32
			for k := 0; k <= b%7; k++ {
				list = append(list, uint32(max(id, 0)+k))
			}
			for k := 0; k <= b/7%5; k++ {
				list = append(list, uint32(b%(maxN+2)+k))
			}
			v.IntroduceRuns(wire.NewHello(0, 0, wire.Hello{Peers: list}).Hello.Runs, now)
			for _, pid := range list {
				m.add(int(pid), now, false)
			}
		case 4:
			v.Remove(id)
			m.remove(id)
		case 5:
			v.Fill(id, now)
			for k := 0; k < id; k++ {
				m.add(k, now, true)
			}
		}
		checkView(t, step, m, v)
	}
}

// TestViewMatchesFlagModel drives random scripts through driveView: the
// run list under every mutator against the flag and stamp arrays.
func TestViewMatchesFlagModel(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3+4*(1+rng.Intn(40)))
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		driveView(t, script)
	}
}

// FuzzView lets the fuzzer write driveView's script.
func FuzzView(f *testing.F) {
	f.Add([]byte{23, 4, 1, 5, 25, 0, 3, 4, 12, 0, 0, 0, 12, 0, 9, 2, 8, 30, 3, 4, 0, 0, 0})
	f.Add([]byte{7, 0, 0, 2, 1, 16, 1, 4, 3, 0, 0, 4, 5, 0, 0, 1, 4, 0, 2, 5, 9, 0, 15})
	f.Add([]byte{15, 9, 2, 0, 3, 0, 7, 0, 5, 0, 7, 0, 4, 0, 9, 1, 4, 0, 2, 3, 17, 40, 1, 4, 5, 0, 0})
	f.Fuzz(driveView)
}

// TestHelloRunsMatchPeerList holds a hello built from a view's runs to
// the one the id-by-id list builds, byte for byte, for views of up to 300
// ids after random Fill, Remove, Introduce and Mark sequences; and a view
// that merges it through IntroduceRuns to one that introduces every
// listed id on its own.
func TestHelloRunsMatchPeerList(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxN := 1 + rng.Intn(300)
		v := NewView(rng.Intn(maxN), maxN)
		for step := 0; step < rng.Intn(60); step++ {
			id, now := rng.Intn(maxN+2)-1, int64(rng.Intn(8))
			switch rng.Intn(4) {
			case 0:
				v.Fill(id, now)
			case 1:
				v.Remove(id)
			case 2:
				v.Introduce(id, now)
			case 3:
				v.Mark(id, now)
			}
		}
		p := wire.NewHello(v.self, 0, wire.Hello{})
		p.Hello.Runs = v.AppendRuns(nil)
		ids := v.AppendPeers(nil)
		got, want := p.Marshal(), wire.NewHello(v.self, 0, wire.Hello{Peers: ids}).Marshal()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: view runs %v encode %x, the id list %x", seed, v.runs, got, want)
		}
		var rx wire.Packet
		if err := wire.UnmarshalInto(&rx, got); err != nil {
			t.Fatal(err)
		}
		live, sa, now := randomLive(rng, maxN), int64(rng.Intn(3)*2), int64(8+rng.Intn(4))
		merged, ref := members(maxN, live), members(maxN, live)
		merged.SuspectAfter, ref.SuspectAfter = sa, sa
		merged.IntroduceRuns(rx.Hello.Runs, now)
		for _, id := range ids {
			ref.Introduce(int(id), now)
		}
		sameView(t, "hello merged", ref, merged, sa)
	}
}

// TestHelloReceivePerRun holds a node's hello receive — one interval
// union per run of the peer list — to the loop it replaced, one
// Introduce per id, on ascending lists that reach past the id space and
// end at id 2³²-1, where a run must neither wrap nor overflow an int.
func TestHelloReceivePerRun(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxN := 2 + rng.Intn(40)
		self, sender, sa := rng.Intn(maxN), rng.Intn(maxN), int64(rng.Intn(3)*2)
		var peers []uint32
		for id := 0; id < maxN+6; id++ {
			if rng.Intn(3) > 0 {
				peers = append(peers, uint32(id))
			}
		}
		for id := uint32(math.MaxUint32 - 3); id >= math.MaxUint32-3; id++ { // ends by wrapping to 0
			if rng.Intn(3) > 0 || id == math.MaxUint32 {
				peers = append(peers, id)
			}
		}

		var metrics NodeMetrics
		first := members(maxN, randomLive(rng, maxN))
		ref := first.clone(self, 2)
		nd := bareNode(self, first, 2, nil, &metrics)
		ref.SuspectAfter, nd.View.SuspectAfter = sa, sa
		perturb(rng, maxN, ref, nd.View)

		nd.Now = int64(rng.Intn(12))
		nd.recv(wire.NewHello(sender, 0, wire.Hello{Peers: peers}).Marshal())
		ref.Mark(sender, nd.Now)
		for _, pid := range peers {
			ref.Introduce(int(pid), nd.Now)
		}

		sameView(t, "hello merged", ref, nd.View, sa)
		perturb(rng, maxN, ref, nd.View)
		sameView(t, "after traffic", ref, nd.View, sa)
	}
}
