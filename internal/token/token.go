// Package token defines the d-bit tokens of the k-token dissemination
// problem, their unique identifiers, initial distribution policies, and
// the block packing used when many small tokens are grouped into larger
// "meta-tokens" for coding (Section 7 of the paper).
package token

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/gf"
)

// UIDBits is the size of a token's unique identifier in bits. The paper
// takes UIDs to be O(log n) bits formed from the owner's node ID plus a
// sequence number; we use a fixed 64-bit layout (owner << 32 | seq).
const UIDBits = 64

// UID identifies a token network-wide.
type UID uint64

// NewUID builds a UID from the owning node's ID and a local sequence
// number, mirroring the paper's "concatenate a sequence number to the
// node ID" construction.
func NewUID(owner, seq int) UID {
	return UID(uint64(uint32(owner))<<32 | uint64(uint32(seq)))
}

// Owner returns the node ID encoded in the UID.
func (u UID) Owner() int { return int(uint64(u) >> 32) }

// Seq returns the sequence number encoded in the UID.
func (u UID) Seq() int { return int(uint32(uint64(u))) }

// String renders the UID as owner:seq.
func (u UID) String() string { return fmt.Sprintf("%d:%d", u.Owner(), u.Seq()) }

// Token is one unit of disseminated information: a UID plus a d-bit
// payload.
type Token struct {
	UID     UID
	Payload gf.BitVec
}

// D returns the payload size in bits.
func (t Token) D() int { return t.Payload.Len() }

// Bits returns the token's wire size: UID plus payload.
func (t Token) Bits() int { return UIDBits + t.Payload.Len() }

// Equal reports whether two tokens have the same UID and payload.
func (t Token) Equal(o Token) bool {
	return t.UID == o.UID && t.Payload.Equal(o.Payload)
}

// Random returns a token with the given UID and a uniformly random d-bit
// payload.
func Random(uid UID, d int, rng *rand.Rand) Token {
	return Token{UID: uid, Payload: gf.RandomBitVec(d, rng.Uint64)}
}

// RandomSet returns k tokens with distinct UIDs (owner i, seq 0 for
// i < k; wraparound uses seq) and random d-bit payloads.
func RandomSet(k, d int, rng *rand.Rand) []Token {
	out := make([]Token, k)
	for i := range out {
		out[i] = Random(NewUID(i%1000000, i/1000000), d, rng)
	}
	return out
}

// Set is a UID-keyed collection of tokens, the "knowledge" of a
// knowledge-based node. It maintains UID order incrementally because the
// forwarding algorithms read the sorted view every round.
type Set struct {
	byUID  map[UID]Token
	sorted []Token
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{byUID: make(map[UID]Token)} }

// Add inserts t, reporting whether it was new.
func (s *Set) Add(t Token) bool {
	if _, ok := s.byUID[t.UID]; ok {
		return false
	}
	s.byUID[t.UID] = t
	pos := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i].UID >= t.UID })
	s.sorted = append(s.sorted, Token{})
	copy(s.sorted[pos+1:], s.sorted[pos:])
	s.sorted[pos] = t
	return true
}

// Has reports whether the set contains uid.
func (s *Set) Has(uid UID) bool {
	_, ok := s.byUID[uid]
	return ok
}

// Get returns the token with the given UID.
func (s *Set) Get(uid UID) (Token, bool) {
	t, ok := s.byUID[uid]
	return t, ok
}

// Len returns the number of tokens.
func (s *Set) Len() int { return len(s.byUID) }

// Tokens returns all tokens sorted by UID. The returned slice is the
// set's internal storage: callers must not modify it and must not hold
// it across Add or Remove calls.
func (s *Set) Tokens() []Token { return s.sorted }
