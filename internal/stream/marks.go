package stream

import (
	"math/bits"

	"repro/internal/wire"
)

// markView is a node's view of every id's delivery watermark, in the
// form an ack carries it: a frontier, and each id's offset above it
// bit-sliced, bit l of id i's offset being bit i%64 of planes[l][i/64].
// The frontier is the least watermark of every id, an id not heard of
// counting as 0, so every sender's frontier is a floor under every id
// and adopting it is the pointwise maximum; an offset saturates at 0, so
// news below the frontier changes nothing. Raising one id costs O(width);
// merging, shifting and a climb step cost O(width · words), 64 ids a
// word operation.
type markView struct {
	frontier int
	// planes holds width planes of words words, the top one nonzero;
	// the zero planes past it, up to the cap of 32, are kept for reuse.
	planes [][]uint64
	words  int
	// tail masks the lanes of the last word that are ids.
	tail uint64
}

func newMarkView(maxN int) markView {
	words := (maxN + 63) / 64
	return markView{planes: make([][]uint64, 0, 32), words: words, tail: ^uint64(0) >> (uint(-maxN) & 63)}
}

// offset is id's watermark less the frontier, 0 below it.
func (v *markView) offset(id int) int {
	o := 0
	for l, p := range v.planes {
		o |= int(p[id>>6]>>(id&63)&1) << l
	}
	return o
}

// raise lifts id's watermark to w, reporting whether it rose.
func (v *markView) raise(id, w int) bool {
	o := w - v.frontier
	if o <= v.offset(id) {
		return false
	}
	for len(v.planes) < bits.Len(uint(o)) {
		v.grow()
	}
	word, bit := id>>6, uint64(1)<<(id&63)
	for l, p := range v.planes {
		p[word] = p[word]&^bit | -uint64(o>>l&1)&bit
	}
	return true
}

// grow adds a zero plane on top.
func (v *markView) grow() {
	v.planes = v.planes[:len(v.planes)+1]
	if top := &v.planes[len(v.planes)-1]; *top == nil {
		*top = make([]uint64, v.words)
	}
}

// trim drops zero planes from the top.
func (v *markView) trim() {
	for l := len(v.planes) - 1; l >= 0; l-- {
		for _, x := range v.planes[l] {
			if x != 0 {
				return
			}
		}
		v.planes = v.planes[:l]
	}
}

// sub subtracts d from the lanes of the plane words s, saturating at 0:
// a full subtractor per plane, borrow in lanes.
func sub(s []uint64, d int) {
	var borrow uint64
	for l, x := range s {
		if borrow == 0 && d>>l == 0 {
			return
		}
		y := -uint64(d >> l & 1)
		s[l] = x ^ y ^ borrow
		borrow = ^x&(y|borrow) | x&y&borrow
	}
	if d>>len(s) != 0 {
		borrow = ^uint64(0)
	}
	for l := range s {
		s[l] &^= borrow
	}
}

// shift lowers every offset by d, saturating at 0.
func (v *markView) shift(d int) {
	var s [32]uint64
	for w := range v.words {
		for l, p := range v.planes {
			s[l] = p[w]
		}
		sub(s[:len(v.planes)], d)
		for l, p := range v.planes {
			p[w] = s[l]
		}
	}
	v.trim()
}

// merge folds a sender's view into this one, id by id by maximum, with
// every watermark clamped to gens, and reports whether the frontier or
// a watermark rose. A larger frontier, a floor under every id, is
// adopted first. self's own watermark is the node's to set, not the
// sender's; self -1 takes every id's.
func (v *markView) merge(a *wire.Ack, self, gens int) bool {
	changed := false
	if f := int(min(a.Frontier, uint32(gens))); f > v.frontier {
		v.shift(f - v.frontier)
		v.frontier, changed = f, true
	}
	width := len(a.Planes)
	if width == 0 || a.Frontier > uint32(v.frontier) {
		return changed // every sender watermark is at gens, the frontier
	}
	d, c := v.frontier-int(a.Frontier), gens-v.frontier
	var s, lim, own [32]uint64 // the sender's lanes, gens', this view's
	for l := range width {
		lim[l] = -uint64(c >> l & 1)
	}
	clamp := uint64(1)<<width-1 > uint64(d+c)
	for len(v.planes) < width {
		v.grow()
	}
	for w := range min(v.words, len(a.Planes[0])) {
		for l, p := range a.Planes {
			s[l] = p[w]
		}
		sub(s[:width], d)
		if clamp {
			over := greater(s[:width], lim[:width])
			for l := range width {
				s[l] = s[l]&^over | lim[l]&over
			}
		}
		for l, p := range v.planes {
			own[l] = p[w]
		}
		gt := greater(s[:len(v.planes)], own[:len(v.planes)])
		if w == self>>6 {
			gt &^= 1 << (self & 63)
		}
		if w == v.words-1 {
			gt &= v.tail
		}
		if gt != 0 {
			changed = true
			for l, p := range v.planes {
				p[w] = p[w]&^gt | s[l]&gt
			}
		}
	}
	v.trim()
	return changed
}

// greater is the lanes in which the plane words x hold more than y.
func greater(x, y []uint64) uint64 {
	gt, eq := uint64(0), ^uint64(0)
	for l := len(x) - 1; l >= 0; l-- {
		gt |= eq & x[l] &^ y[l]
		eq &^= x[l] ^ y[l]
	}
	return gt
}

// climb raises the frontier to the least watermark of every id.
func (v *markView) climb() {
	if d := v.least(nil); d > 0 {
		v.shift(d)
		v.frontier += d
	}
}

// least is the smallest offset of a counted id — every id when counted
// is nil, else the ids it holds, which must be some: the largest d that
// no counted id is below, found a bit at a time from the top.
func (v *markView) least(counted []uint64) int {
	d := 0
	for l := len(v.planes) - 1; l >= 0; l-- {
		if !v.below(counted, d|1<<l) {
			d |= 1 << l
		}
	}
	return d
}

// below reports whether some counted id's offset is below d.
func (v *markView) below(counted []uint64, d int) bool {
	var lim, own [32]uint64
	width := len(v.planes)
	for l := range width {
		lim[l] = -uint64(d >> l & 1)
	}
	for w := range v.words {
		m := ^uint64(0)
		if w == v.words-1 {
			m = v.tail
		}
		if counted != nil {
			m &= counted[w]
		}
		for l, p := range v.planes {
			own[l] = p[w]
		}
		if m&greater(lim[:width], own[:width]) != 0 {
			return true
		}
	}
	return false
}
