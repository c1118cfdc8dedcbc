//go:build !linux

package gf

import "testing"

// endOfAllocation returns n words allocated on their own, so the last
// of them ends where the allocation does.
func endOfAllocation(t *testing.T, n int) []uint64 { return make([]uint64, n) }
