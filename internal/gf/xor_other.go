//go:build !amd64

package gf

func hasAVX512() bool { return false }

func pextq(x, mask uint64) uint64 { return pext(x, mask) }

func gatherXor512(_, _ []uint64, _ []int32, _ uint64, _, _ int) { panic("gf: no AVX-512 kernel") }

func scatterXor512(_, _ []uint64, _ int, _ uint64, _, _ int) { panic("gf: no AVX-512 kernel") }
