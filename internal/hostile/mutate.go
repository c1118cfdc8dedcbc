package hostile

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/keyed"
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
	// layer must account as Stale or absorb as non-innovative rather
	// than re-deliver. It replays genuine history rather than forge the
	// epoch: the wire carries no integrity tag, so a forged epoch would
	// poison the wrong generation's span undetectably (DESIGN.md; the
	// fuzz-facing Mutate still rewrites the epoch bytes).
	OpStale
	// OpTrunc truncates the packet to a random shorter prefix; the
	// canonical decoder must reject it into exactly one drop bucket.
	OpTrunc
	// OpFlip flips 1–3 random bits, and the version byte too if the
	// result would still parse: with no checksum on the wire, a flip
	// that parses would poison decoding undetectably (DESIGN.md).
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

// MutationSpec sets the per-Send application rate of each mutation,
// indexed by Op. Ops are evaluated in code order (dup, stale, trunc,
// flip, xgen) and at most one fires per Send, so a later op's effective
// rate is scaled by the earlier ops' complements.
type MutationSpec [numOps]float64

// Enabled reports whether any mutation has a positive rate.
func (s MutationSpec) Enabled() bool {
	for _, r := range s {
		if r > 0 {
			return true
		}
	}
	return false
}

// Validate rejects rates outside [0,1).
func (s MutationSpec) Validate() error {
	for op, r := range s {
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
	for op, r := range s {
		if r > 0 {
			parts = append(parts, fmt.Sprintf("%s:%g", Op(op), r))
		}
	}
	return strings.Join(parts, ",")
}

// OpList is the -mutate grammar's ops as one "dup|…|all" list.
func OpList() string { return strings.Join(opNames[:], "|") + "|all" }

// ParseMutations parses the -mutate grammar: a comma-separated list of
// op:rate pairs, e.g. "dup:0.05,stale:0.1,trunc:0.02", an op being an
// Op's String; the shorthand "all:rate" sets every op at once. An
// empty string is the zero (disabled) spec.
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
		set := 0
		for op, name := range opNames {
			if fields[0] == name || fields[0] == "all" {
				s[op], set = rate, set+1
			}
		}
		if set == 0 {
			return s, fmt.Errorf("hostile: mutation %q: unknown op %q (want %s)", part, fields[0], OpList())
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

// mutSender is what the mutator keeps for one sender, so that what it
// does to a packet depends on that sender's own sends only.
type mutSender struct {
	rng     *rand.Rand
	history [][]byte // OpStale's replay source: seeded reservoir of the sender's past packets
}

// staleHistory bounds a sender's OpStale replay reservoir. Inserts
// land at a seeded random slot once full, so entry ages follow a geometric
// distribution: some entries stay ancient, which is what makes the
// replayed epochs genuinely stale.
const staleHistory = 32

// WithMutator adds a rule to t that, with the spec's probabilities
// drawn from the sender's stream (seed, keyed.Mutator, sender),
// duplicates a packet, replays a stale one from the sender's own
// history, truncates it, flips bits in it, or parks it behind the
// sender's next packet parked here. Copies are fresh allocations (the
// inner transport owns what it accepts); in-place mutations reuse the
// sender's buffer, which the ring recycling does not mind. A disabled
// spec returns t unchanged; an invalid one panics (callers validate
// via MutationSpec.Validate / ParseMutations).
func WithMutator(t cluster.Transport, spec MutationSpec, seed int64, tel *telemetry.Recorder) cluster.Transport {
	if !spec.Enabled() {
		return t
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	senders := cluster.Senders[mutSender]{New: func(from int) *mutSender {
		s := &mutSender{rng: keyed.Rand(seed, keyed.Mutator, int64(from))}
		if spec[OpStale] > 0 {
			s.history = make([][]byte, 0, staleHistory)
		}
		return s
	}}
	var scratch wire.Packet
	return cluster.WithRule(t, cluster.Rule{Decide: func(from, to int, pkt []byte, tick int64) cluster.Verdict {
		s := senders.Of(from)
		op := Op(-1)
		for o, rate := range spec {
			if rate > 0 && s.rng.Float64() < rate {
				op = Op(o)
				break
			}
		}
		// The replay reservoir captures originals before any in-place
		// mutation, so a replayed packet is always one that was genuinely
		// on the wire.
		if s.history != nil && len(pkt) > 0 {
			cp := append([]byte(nil), pkt...)
			if len(s.history) < cap(s.history) {
				s.history = append(s.history, cp)
			} else {
				s.history[s.rng.Intn(len(s.history))] = cp
			}
		}
		if op < 0 {
			return cluster.Verdict{}
		}
		tel.Event(from, tick, telemetry.KindMutate, int64(to), int64(op), 0)
		switch op {
		case OpDup:
			return cluster.Verdict{Act: cluster.Inject, Pkt: append([]byte(nil), pkt...)}
		case OpStale:
			if len(s.history) > 0 {
				return cluster.Verdict{Act: cluster.Inject, Pkt: append([]byte(nil), s.history[s.rng.Intn(len(s.history))]...)}
			}
		case OpTrunc:
			return cluster.Verdict{Pkt: mutateTrunc(pkt, s.rng)}
		case OpFlip:
			return cluster.Verdict{Pkt: mutateFlip(pkt, &scratch, s.rng)}
		case OpXgen:
			return cluster.Verdict{Act: cluster.Park}
		}
		return cluster.Verdict{}
	}})
}
