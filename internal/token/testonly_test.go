package token

import (
	"fmt"
	"math/rand"
)

// Exported functions only this package's tests call.

// RandomUIDs realizes the Section 4.1 remark that O(log n)-bit unique
// IDs are without loss of generality for randomized algorithms: it
// draws n IDs uniformly from [1, 2^bits) and reports whether they are
// in fact distinct (which fails with probability about n^2 / 2^bits,
// the birthday bound — negligible for bits >= 4 lg n).
func RandomUIDs(n, bits int, rng *rand.Rand) ([]UID, bool) {
	if bits < 1 || bits > 63 {
		panic(fmt.Sprintf("token: UID bits %d out of range [1,63]", bits))
	}
	out := make([]UID, n)
	seen := make(map[UID]bool, n)
	distinct := true
	for i := range out {
		id := UID(rng.Int63n(1<<uint(bits)-1) + 1)
		if seen[id] {
			distinct = false
		}
		seen[id] = true
		out[i] = id
	}
	return out, distinct
}
