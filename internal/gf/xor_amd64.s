#include "textflag.h"

// The AVX-512F subset-xor kernels behind BitMatrix.XorRows and Insert's
// back-elimination (xor_amd64.go), and the BMI2 PEXT behind the
// reduction's row selection. Both kernels walk the row from word w in
// panels of up to 32 words: four ZMM registers of eight words, K1–K4
// masking the registers past the row's end. A masked-off lane is
// neither loaded nor stored and cannot fault, so the last panel needs
// no scalar tail, and a row narrower than a panel runs the same loop.
// Within a panel each kernel walks the selection word itself, lowest
// set bit first: BSF names row i, the gather's slab row order[i], the
// scatter's row+i. R15 stays untouched (-dynlink clobbers it).

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  nope         // no leaf 7
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX      // OSXSAVE: XGETBV is usable
	JCC  nope
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6    // the OS saves SSE, AVX, opmask and all 32 ZMM
	JNE  nope
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX      // AVX512F
	JCC  nope
	BTL  $8, BX       // BMI2: PEXTQ
	JCC  nope
	MOVB $1, ret+0(FP)

nope:
	RET

// func pextq(x, mask uint64) uint64
TEXT ·pextq(SB), NOSPLIT, $0-24
	MOVQ  x+0(FP), AX
	MOVQ  mask+8(FP), CX
	PEXTQ CX, AX, AX
	MOVQ  AX, ret+16(FP)
	RET

// PANEL sets CX to the words left in the panel at word BX of a
// DX-word row (at most 32; the caller has checked BX < DX) and K1–K4
// to their lane masks.
#define PANEL \
	MOVQ  DX, CX          \
	SUBQ  BX, CX          \
	MOVQ  $32, AX         \
	CMPQ  CX, AX          \
	CMOVQGT AX, CX        \
	MOVQ  $1, AX          \
	SHLQ  CX, AX          \
	DECQ  AX              \
	KMOVW AX, K1          \
	SHRQ  $8, AX          \
	KMOVW AX, K2          \
	SHRQ  $8, AX          \
	KMOVW AX, K3          \
	SHRQ  $8, AX          \
	KMOVW AX, K4

// GATHER xors register r of the panel of the row at R13 into Zr.
#define GATHER(disp, kr, zr) VPXORQ disp(R13), zr, kr, zr

// SCATTER xors register r of the panel (Zr) into the row at R13.
#define SCATTER(disp, kr, zr, tr) \
	VPXORQ.Z  disp(R13), zr, kr, tr \
	VMOVDQU64 tr, kr, disp(R13)

// ROW sets R13 to the panel of the row the lowest set bit i of R12
// names, slab + 8·(stride·order[i] + w), and clears that bit.
#define ROW \
	BSFQ    R12, AX           \
	MOVLQZX (R8)(AX*4), R13   \
	IMULQ   R14, R13          \
	ADDQ    R11, R13          \
	LEAQ    -1(R12), AX       \
	ANDQ    AX, R12

// SLABROW is ROW for a run of slab rows from R8: slab + 8·(stride·(R8+i) + w).
#define SLABROW \
	BSFQ    R12, AX           \
	LEAQ    (R8)(AX*1), R13   \
	IMULQ   R14, R13          \
	ADDQ    R11, R13          \
	LEAQ    -1(R12), AX       \
	ANDQ    AX, R12

// LOAD sets up the panel at word BX: K-masks, R10 = &dst[BX] with its
// panel in Z0–Z3, R11 = &slab[BX], R12 = the whole selection.
#define LOAD \
	PANEL                            \
	LEAQ (DI)(BX*8), R10             \
	LEAQ (SI)(BX*8), R11             \
	VMOVDQU64.Z 0(R10), K1, Z0       \
	VMOVDQU64.Z 64(R10), K2, Z1      \
	VMOVDQU64.Z 128(R10), K3, Z2     \
	VMOVDQU64.Z 192(R10), K4, Z3     \
	MOVQ R9, R12

// func gatherXor512(dst, slab []uint64, order []int32, sel uint64, stride, w int)
TEXT ·gatherXor512(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ slab_base+24(FP), SI
	MOVQ order_base+48(FP), R8
	MOVQ sel+72(FP), R9
	MOVQ stride+80(FP), R14
	SHLQ $3, R14 // the stride in bytes
	MOVQ w+88(FP), BX
	TESTQ R9, R9
	JZ   gdone
	CMPQ BX, DX
	JGE  gdone

gpanel:
	LOAD

gloop:
	ROW
	GATHER(0, K1, Z0)
	GATHER(64, K2, Z1)
	GATHER(128, K3, Z2)
	GATHER(192, K4, Z3)
	TESTQ R12, R12
	JNZ  gloop
	VMOVDQU64 Z0, K1, 0(R10)
	VMOVDQU64 Z1, K2, 64(R10)
	VMOVDQU64 Z2, K3, 128(R10)
	VMOVDQU64 Z3, K4, 192(R10)
	ADDQ $32, BX
	CMPQ BX, DX
	JLT  gpanel

gdone:
	VZEROUPPER
	RET

// func scatterXor512(src, slab []uint64, row int, sel uint64, stride, w int)
TEXT ·scatterXor512(SB), NOSPLIT, $0-80
	MOVQ src_base+0(FP), DI
	MOVQ src_len+8(FP), DX
	MOVQ slab_base+24(FP), SI
	MOVQ row+48(FP), R8
	MOVQ sel+56(FP), R9
	MOVQ stride+64(FP), R14
	SHLQ $3, R14 // the stride in bytes
	MOVQ w+72(FP), BX
	TESTQ R9, R9
	JZ   sdone
	CMPQ BX, DX
	JGE  sdone

spanel:
	LOAD

sloop:
	SLABROW
	SCATTER(0, K1, Z0, Z4)
	SCATTER(64, K2, Z1, Z5)
	SCATTER(128, K3, Z2, Z6)
	SCATTER(192, K4, Z3, Z7)
	TESTQ R12, R12
	JNZ  sloop
	ADDQ $32, BX
	CMPQ BX, DX
	JLT  spanel

sdone:
	VZEROUPPER
	RET
