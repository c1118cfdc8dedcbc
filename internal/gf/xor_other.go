//go:build !amd64

package gf

func hasAVX512() bool { return false }

func gatherXor512(_, _ []uint64, _ []int32, _ uint64, _, _ int) { panic("gf: no AVX-512 kernel") }

func scatterXor512(_, _ []uint64, _ []int32, _ uint64, _, _ int) { panic("gf: no AVX-512 kernel") }
