package derand

// Exported functions only this package's tests call.

// UnionBoundHolds reports whether the Theorem 6.1 union bound closes:
// the number of witnesses times the per-witness failure probability is
// below 2^{-margin}.
func UnionBoundHolds(n, k, rounds int, q uint64, margin float64) bool {
	return FailureExponentBits(n, q) >= WitnessBits(n, k, rounds)+margin
}
