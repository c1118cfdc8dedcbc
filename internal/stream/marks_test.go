package stream

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
)

// refView is markView's model: the frontier and one offset an id, plain
// ints.
type refView struct {
	frontier int
	off      []int
}

// planesOf spells offsets as bit-planes, the way an ack carries them.
func planesOf(off []int) [][]uint64 {
	var planes [][]uint64
	for id, o := range off {
		for len(planes) < bits.Len(uint(o)) {
			planes = append(planes, make([]uint64, (len(off)+63)/64))
		}
		for l, p := range planes {
			p[id/64] |= uint64(o>>l&1) << (id % 64)
		}
	}
	return planes
}

// checkView holds v to the model: the frontier, every offset, a nonzero
// top plane and no bit set past the last id.
func checkView(t *testing.T, step string, v *markView, ref *refView) {
	t.Helper()
	if v.frontier != ref.frontier {
		t.Fatalf("%s: frontier %d, model %d", step, v.frontier, ref.frontier)
	}
	for id, o := range ref.off {
		if got := v.offset(id); got != o {
			t.Fatalf("%s: id %d at offset %d, model %d", step, id, got, o)
		}
	}
	if w := len(v.planes); w > 0 && !slices.ContainsFunc(v.planes[w-1], func(x uint64) bool { return x != 0 }) {
		t.Fatalf("%s: top plane %d is zero", step, w-1)
	}
	for l, p := range v.planes {
		if p[v.words-1]&^v.tail != 0 {
			t.Fatalf("%s: plane %d has bits past id %d", step, l, len(ref.off)-1)
		}
	}
}

// TestMarkViewModel applies random raises, shifts, merges, climbs and
// least-offset queries to a markView and to a plain []int model and
// holds the two equal after every step. Offsets reach 32 bits in senders' planes, saturate at 0
// when shifted below the frontier, and senders' frontiers fall behind,
// level with and ahead of the receiver's; senders' watermarks pass gens
// and are clamped to it.
func TestMarkViewModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := []int{1, 2, 63, 64, 65, 130, 200}[trial%7]
		gens := 1 + rng.Intn(1<<uint(rng.Intn(31)))
		self := rng.Intn(n)
		v, ref := newMarkView(n), &refView{off: make([]int, n)}
		// draw is an offset of a random bit length up to bits, within max.
		draw := func(bits, max int) int {
			o := int(rng.Int63n(1 << uint(rng.Intn(bits+1))))
			return min(o, max)
		}
		for step := 0; step < 40; step++ {
			var name string
			switch op := rng.Intn(5); op {
			case 0: // raise one id, often self, to a watermark at most gens
				id, w := []int{self, rng.Intn(n)}[rng.Intn(2)], ref.frontier+draw(31, gens-ref.frontier)
				name = fmt.Sprintf("raise(%d, %d)", id, w)
				rose := w-ref.frontier > ref.off[id]
				ref.off[id] = max(ref.off[id], w-ref.frontier)
				if got := v.raise(id, w); got != rose {
					t.Fatalf("trial %d %s: reported %v, model %v", trial, name, got, rose)
				}
			case 1: // shift every offset down
				d := draw(32, 1<<32)
				name = fmt.Sprintf("shift(%d)", d)
				for i := range ref.off {
					ref.off[i] = max(0, ref.off[i]-d)
				}
				v.shift(d)
			case 2: // merge a sender's view
				var f int
				switch rng.Intn(3) {
				case 0:
					f = rng.Intn(ref.frontier + 1)
				case 1:
					f = ref.frontier
				default:
					f = ref.frontier + draw(31, gens+8-ref.frontier)
				}
				width, dense := rng.Intn(33), rng.Intn(2)
				sent := make([]int, n)
				for i := range sent {
					if sent[i] = dense; rng.Intn(3) > 0 {
						sent[i] += draw(width, 1<<32-2)
					}
				}
				a := wire.Ack{Frontier: uint32(f), Planes: planesOf(sent)}
				if len(a.Planes) > 0 && rng.Intn(4) == 0 {
					// A forged ack: bits past the last id, which name no one.
					a.Planes[0][v.words-1] |= ^v.tail
				}
				name = fmt.Sprintf("merge(frontier %d, width %d)", f, len(a.Planes))
				rose := false
				if g := min(f, gens); g > ref.frontier {
					for i := range ref.off {
						ref.off[i] = max(0, ref.off[i]-(g-ref.frontier))
					}
					ref.frontier, rose = g, true
				}
				for i, o := range sent {
					if m := min(f+o, gens) - ref.frontier; i != self && m > ref.off[i] {
						ref.off[i], rose = m, true
					}
				}
				if got := v.merge(&a, self, gens); got != rose {
					t.Fatalf("trial %d %s: reported %v, model %v", trial, name, got, rose)
				}
			case 3: // climb over every id
				least := slices.Min(ref.off)
				name = fmt.Sprintf("climb(%d)", least)
				for i := range ref.off {
					ref.off[i] -= least
				}
				ref.frontier += least
				v.climb()
			case 4: // the least offset over every id, or over a random set with self
				var counted []uint64
				least, odds := 1<<62, 1+rng.Intn(16)
				if rng.Intn(2) == 0 {
					counted = make([]uint64, v.words)
				}
				for i, o := range ref.off {
					if counted == nil || i == self || rng.Intn(odds) == 0 {
						least = min(least, o)
						if counted != nil {
							counted[i/64] |= 1 << (i % 64)
						}
					}
				}
				name = fmt.Sprintf("least(%d)", least)
				if got := v.least(counted); got != least {
					t.Fatalf("trial %d %s: least %d, model %d", trial, name, got, least)
				}
			}
			checkView(t, fmt.Sprintf("trial %d step %d %s", trial, step, name), &v, ref)
		}
	}
}
