package token

import (
	"fmt"
	"math/rand"
)

// Distribution assigns each node its initial tokens; index is node ID.
type Distribution [][]Token

// K returns the total number of distinct tokens across all nodes.
func (d Distribution) K() int {
	seen := make(map[UID]struct{})
	for _, ts := range d {
		for _, t := range ts {
			seen[t.UID] = struct{}{}
		}
	}
	return len(seen)
}

// All returns one copy of every distinct token, sorted by UID.
func (d Distribution) All() []Token {
	seen := make(map[UID]Token)
	for _, ts := range d {
		for _, t := range ts {
			seen[t.UID] = t
		}
	}
	out := make([]Token, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	SortByUID(out)
	return out
}

// HeldBy checks that set holds every token of the distribution with its
// payload intact — what "the node learned all k tokens" means at the end
// of every dissemination run. Counting the set is not enough: a token
// with a flipped payload bit still counts.
func (d Distribution) HeldBy(set *Set) error {
	for _, ts := range d {
		for _, t := range ts {
			got, ok := set.Get(t.UID)
			if !ok {
				return fmt.Errorf("token %v missing", t.UID)
			}
			if !got.Equal(t) {
				return fmt.Errorf("token %v corrupted", t.UID)
			}
		}
	}
	return nil
}

// OnePerNode gives node i the single token with UID i:0 — the canonical
// n-token dissemination instance (k = n).
func OnePerNode(n, d int, rng *rand.Rand) Distribution {
	out := make(Distribution, n)
	for i := range out {
		out[i] = []Token{Random(NewUID(i, 0), d, rng)}
	}
	return out
}

// Spread places k tokens on nodes chosen uniformly at random; a node may
// receive several or none. Token UIDs are owner:seq for the node that
// starts with them.
func Spread(n, k, d int, rng *rand.Rand) Distribution {
	out := make(Distribution, n)
	seq := make([]int, n)
	for j := 0; j < k; j++ {
		i := rng.Intn(n)
		out[i] = append(out[i], Random(NewUID(i, seq[i]), d, rng))
		seq[i]++
	}
	return out
}

// AtOne places all k tokens on node 0 (the gathering-free instance, where
// indexing is trivial).
func AtOne(n, k, d int, rng *rand.Rand) Distribution {
	out := make(Distribution, n)
	for j := 0; j < k; j++ {
		out[0] = append(out[0], Random(NewUID(0, j), d, rng))
	}
	return out
}

// NamedDistribution builds a distribution by policy name for the CLI
// tools. Supported: one-per-node, spread, at-one.
func NamedDistribution(name string, n, k, d int, rng *rand.Rand) (Distribution, error) {
	switch name {
	case "one-per-node":
		if k != n {
			return nil, fmt.Errorf("token: one-per-node requires k == n (got k=%d, n=%d)", k, n)
		}
		return OnePerNode(n, d, rng), nil
	case "spread":
		return Spread(n, k, d, rng), nil
	case "at-one":
		return AtOne(n, k, d, rng), nil
	default:
		return nil, fmt.Errorf("token: unknown distribution %q", name)
	}
}
