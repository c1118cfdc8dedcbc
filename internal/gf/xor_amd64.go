package gf

// hasAVX512 reports whether the CPU has AVX-512F and BMI2 and the OS
// saves the opmask and ZMM state: CPUID.1:ECX.OSXSAVE, XCR0 & 0xE6 ==
// 0xE6, CPUID.(7,0):EBX.AVX512F and CPUID.(7,0):EBX.BMI2.
func hasAVX512() bool

// pextq is BMI2's PEXTQ: the bits of x at the set bits of mask, packed
// into the low bits in mask order.
func pextq(x, mask uint64) uint64

// gatherXor512 xors into dst[w:] the rows slab[o+w : o+len(dst)], o =
// stride·order[i], for every set bit i of sel: each row is read once,
// against dst held in registers a 32-word panel at a time.
//
//go:noescape
func gatherXor512(dst, slab []uint64, order []int32, sel uint64, stride, w int)

// scatterXor512 xors src[w:] into the rows slab[o+w : o+len(src)], o =
// stride·(row+i), for every set bit i of sel, src held in registers a
// 32-word panel at a time. No row may overlap src or another row.
//
//go:noescape
func scatterXor512(src, slab []uint64, row int, sel uint64, stride, w int)
