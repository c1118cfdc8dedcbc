package hostile

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Op identifies one hostile-packet mutation. The codes are stable:
// they appear as telemetry KindMutate.B values and as the fuzz
// corpus's op selector.
type Op int

const (
	// OpDup sends an extra byte-identical copy before the original —
	// the network delivering one datagram twice.
	OpDup Op = iota
	// OpStale replays an earlier packet from a bounded seeded history —
	// a datagram whose epoch has since gone stale, which the stream
	// layer must account as Stale (retired generation) or absorb as
	// non-innovative rather than re-deliver. The transport replays
	// genuine history instead of forging the epoch field in place: the
	// wire format carries no integrity tag binding payload to epoch, so
	// a forged epoch would be absorbed into the wrong generation's span
	// and silently poison RLNC decoding — an attack the protocol cannot
	// detect, documented in DESIGN.md. (The fuzz-facing Mutate primitive
	// still rewrites the epoch bytes: the datagram layer must survive
	// arbitrary epochs.)
	OpStale
	// OpTrunc truncates the packet to a random shorter prefix; the
	// canonical decoder must reject it into exactly one drop bucket.
	OpTrunc
	// OpFlip flips 1–3 random bits. Because the wire format carries no
	// integrity checksum, a flip that still parses would silently
	// poison RLNC decoding or corrupt ack watermarks — so after
	// flipping, the mutator re-parses the bytes and, if they still
	// decode, additionally corrupts the version byte to guarantee
	// rejection. The honest lesson (a checksum would catch what the
	// envelope cannot) is documented in DESIGN.md.
	OpFlip
	// OpXgen reorders across generations with a one-slot hold-back: a
	// selected packet is parked and released only when the next
	// selected packet replaces it, so packets of later epochs overtake
	// it (cf. cluster.WithReorder, which reorders without epoch gaps).
	OpXgen

	numOps
)

var opNames = [numOps]string{"dup", "stale", "trunc", "flip", "xgen"}

// String returns the op's spec-grammar name.
func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// MutationSpec sets the per-Send application rate of each mutation.
// Ops are evaluated in code order (dup, stale, trunc, flip, xgen) and
// at most one fires per Send, so a later op's effective rate is scaled
// by the earlier ops' complements.
type MutationSpec struct {
	Dup, Stale, Trunc, Flip, Xgen float64
}

// rates returns the spec in canonical op order.
func (s MutationSpec) rates() [numOps]float64 {
	return [numOps]float64{s.Dup, s.Stale, s.Trunc, s.Flip, s.Xgen}
}

// Enabled reports whether any mutation has a positive rate.
func (s MutationSpec) Enabled() bool {
	for _, r := range s.rates() {
		if r > 0 {
			return true
		}
	}
	return false
}

// Validate rejects rates outside [0,1).
func (s MutationSpec) Validate() error {
	for op, r := range s.rates() {
		if r < 0 || r >= 1 {
			return fmt.Errorf("hostile: %s rate must be in [0,1), got %g", Op(op), r)
		}
	}
	return nil
}

// String renders the spec in the ParseMutations grammar (only the
// positive rates, in canonical op order); empty for the zero spec.
func (s MutationSpec) String() string {
	var parts []string
	for op, r := range s.rates() {
		if r > 0 {
			parts = append(parts, fmt.Sprintf("%s:%g", Op(op), r))
		}
	}
	return strings.Join(parts, ",")
}

// ParseMutations parses the -mutate grammar: a comma-separated list of
// op:rate pairs, e.g. "dup:0.05,stale:0.1,trunc:0.02". Ops are dup,
// stale, trunc, flip and xgen; the shorthand "all:rate" sets every op
// at once. An empty string is the zero (disabled) spec.
func ParseMutations(spec string) (MutationSpec, error) {
	var s MutationSpec
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 2 {
			return s, fmt.Errorf("hostile: mutation %q: want op:rate", part)
		}
		rate, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || rate < 0 || rate >= 1 {
			return s, fmt.Errorf("hostile: mutation %q: rate must be in [0,1)", part)
		}
		switch fields[0] {
		case "dup":
			s.Dup = rate
		case "stale":
			s.Stale = rate
		case "trunc":
			s.Trunc = rate
		case "flip":
			s.Flip = rate
		case "xgen":
			s.Xgen = rate
		case "all":
			s = MutationSpec{Dup: rate, Stale: rate, Trunc: rate, Flip: rate, Xgen: rate}
		default:
			return s, fmt.Errorf("hostile: mutation %q: unknown op %q (want dup|stale|trunc|flip|xgen|all)", part, fields[0])
		}
	}
	return s, nil
}

// Mutate applies op to pkt using draws from rng and returns the bytes
// to put on the wire: pkt itself (possibly bit-flipped in place), a
// shorter prefix of it (OpTrunc), or a fresh copy with a regressed
// envelope epoch (OpStale — the decoder-facing byte recipe; the
// transport's OpStale replays genuine history instead, see the op
// docs). OpDup and OpXgen are byte-identity here — their effect (an
// extra send, a reordered send) lives in the transport layer — so the
// fuzz targets exercising decoder survival share the byte recipes
// WithMutator puts on the wire.
func Mutate(op Op, pkt []byte, rng *rand.Rand) []byte {
	switch op {
	case OpStale:
		if cp := mutateStale(pkt, rng); cp != nil {
			return cp
		}
		return pkt
	case OpTrunc:
		return mutateTrunc(pkt, rng)
	case OpFlip:
		var scratch wire.Packet
		return mutateFlip(pkt, &scratch, rng)
	default:
		return pkt
	}
}

// mutateStale clones pkt with its envelope epoch rewritten to a
// strictly earlier value, or returns nil when the packet has no epoch
// to regress (short header or epoch zero).
func mutateStale(pkt []byte, rng *rand.Rand) []byte {
	if len(pkt) < wire.HeaderBytes {
		return nil
	}
	epoch := binary.LittleEndian.Uint32(pkt[6:10])
	if epoch == 0 {
		return nil
	}
	cp := append([]byte(nil), pkt...)
	binary.LittleEndian.PutUint32(cp[6:10], uint32(rng.Int63n(int64(epoch))))
	return cp
}

// mutateTrunc returns a random strictly-shorter prefix of pkt.
func mutateTrunc(pkt []byte, rng *rand.Rand) []byte {
	if len(pkt) == 0 {
		return pkt
	}
	return pkt[:rng.Intn(len(pkt))]
}

// mutateFlip flips 1–3 random bits of pkt in place, then guarantees
// the result is rejected by the canonical decoder: the wire format has
// no integrity checksum, so a flip that still parses would silently
// corrupt protocol state (poisoned RLNC decode, wrong watermarks)
// instead of exercising the drop accounting. If the flipped bytes
// still unmarshal, the version byte is corrupted too.
func mutateFlip(pkt []byte, scratch *wire.Packet, rng *rand.Rand) []byte {
	if len(pkt) == 0 {
		return pkt
	}
	for i, flips := 0, 1+rng.Intn(3); i < flips; i++ {
		bit := rng.Intn(len(pkt) * 8)
		pkt[bit/8] ^= 1 << uint(bit%8)
	}
	if err := wire.UnmarshalInto(scratch, pkt); err == nil {
		pkt[0] ^= 0x80
	}
	return pkt
}

// mutTransport injects hostile packets on the Send path.
type mutTransport struct {
	cluster.Layer
	spec  MutationSpec
	rates [numOps]float64
	tel   *telemetry.Recorder

	mu      sync.Mutex
	rng     *rand.Rand
	tick    int64
	held    *heldSend // OpXgen's one-slot hold-back
	history [][]byte  // OpStale's replay source: seeded reservoir of past packets
	scratch wire.Packet
}

// staleHistory bounds OpStale's replay reservoir. Inserts land at a
// seeded random slot once full, so entry ages follow a geometric
// distribution: some entries stay ancient, which is what makes the
// replayed epochs genuinely stale.
const staleHistory = 32

type heldSend struct {
	from, to int
	pkt      []byte
}

// WithMutator decorates t so each Send is, with the spec's seeded
// probabilities, duplicated, replayed with a stale epoch, truncated,
// bit-flipped, or reordered across generations. Copies are fresh
// allocations (the inner transport owns what it accepts); in-place
// mutations reuse the sender's buffer, which the ring recycling does
// not mind. Like the other hostile layers it must sit above WithDelay
// so mutation draws and telemetry stay on the sender's goroutine. A
// disabled spec returns t unchanged; an invalid one panics (callers
// validate via MutationSpec.Validate / ParseMutations).
func WithMutator(t cluster.Transport, spec MutationSpec, seed int64, tel *telemetry.Recorder) cluster.Transport {
	if !spec.Enabled() {
		return t
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	mt := &mutTransport{
		Layer: cluster.Layer{Transport: t}, spec: spec, rates: spec.rates(), tel: tel,
		rng: cluster.NewRand(seed, cluster.RandMutator),
	}
	if spec.Stale > 0 {
		mt.history = make([][]byte, 0, staleHistory)
	}
	return mt
}

// ObserveTick implements cluster.TickObserver (the tick only stamps
// KindMutate events; mutation draws are tick-independent).
func (m *mutTransport) ObserveTick(tick int64) {
	m.mu.Lock()
	if tick > m.tick {
		m.tick = tick
	}
	m.mu.Unlock()
	cluster.ObserveTick(m.Transport, tick)
}

func (m *mutTransport) Send(from, to int, pkt []byte) bool {
	m.mu.Lock()
	op := Op(-1)
	for o, rate := range m.rates {
		if rate > 0 && m.rng.Float64() < rate {
			op = Op(o)
			break
		}
	}
	// The replay reservoir captures originals before any in-place
	// mutation, so a replayed packet is always one that was genuinely
	// on the wire.
	if m.history != nil && len(pkt) > 0 {
		cp := append([]byte(nil), pkt...)
		if len(m.history) < cap(m.history) {
			m.history = append(m.history, cp)
		} else {
			m.history[m.rng.Intn(len(m.history))] = cp
		}
	}
	var extra []byte      // an additional packet to send before the original
	var release *heldSend // a parked packet OpXgen is letting go
	parked := false
	switch op {
	case OpDup:
		extra = append([]byte(nil), pkt...)
	case OpStale:
		if len(m.history) > 0 {
			extra = append([]byte(nil), m.history[m.rng.Intn(len(m.history))]...)
		}
	case OpTrunc:
		pkt = mutateTrunc(pkt, m.rng)
	case OpFlip:
		pkt = mutateFlip(pkt, &m.scratch, m.rng)
	case OpXgen:
		release = m.held
		m.held = &heldSend{from: from, to: to, pkt: pkt}
		parked = true
	}
	tick := m.tick
	m.mu.Unlock()

	if op >= 0 {
		m.tel.Event(from, tick, telemetry.KindMutate, int64(to), int64(op), 0)
	}
	if release != nil {
		m.Transport.Send(release.from, release.to, release.pkt)
	}
	if parked {
		// Like WithReorder, a parked packet reports true optimistically:
		// its eventual fate belongs to a later delivery.
		return true
	}
	if extra != nil {
		m.Transport.Send(from, to, extra)
	}
	return m.Transport.Send(from, to, pkt)
}

// Ops returns every mutation op in canonical order — the fuzz targets
// iterate it so a new op cannot be forgotten.
func Ops() []Op {
	ops := make([]Op, 0, numOps)
	for o := Op(0); o < numOps; o++ {
		ops = append(ops, o)
	}
	return ops
}
