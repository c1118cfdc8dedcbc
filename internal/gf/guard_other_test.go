//go:build !linux

package gf

import "testing"

// endOfAllocation returns n elements allocated on their own, so the last
// of them ends where the allocation does.
func endOfAllocation[T any](t *testing.T, n int) []T { return make([]T, n) }
