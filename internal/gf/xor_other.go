//go:build !amd64

package gf

func hasAVX512() bool { return false }

func gatherXor512(dst, slab []uint64, off []int, w int) { panic("gf: no AVX-512 kernel") }

func scatterXor512(src, slab []uint64, off []int, w int) { panic("gf: no AVX-512 kernel") }
