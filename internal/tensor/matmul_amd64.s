#include "textflag.h"

// The AVX tiles of matmulRows and matmulT2Rows. Each runs one pair of output
// rows across every full 4-column block: two blocks at a time, a 2×8 tile in
// Y0/Y4 (row 0) and Y1/Y5 (row 1), while two are left, then a 2×4 tile in Y0
// and Y1. Each lane is one float64 chain over ascending p. A step is a
// VMULPD, whose product is rounded on its own, then a VADDPD into the
// chain: the MULSD/ADDSD pair Go's scalar code issues for c += a*b on amd64.
// There is no fused multiply-add here.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// CPUID.1:ECX bit 27 is OSXSAVE, bit 28 is AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func rowsPairAVX(c, a, b *float64, k, n, ri, rp int)
//
// Adds rows i and i+1 of A·B into c and c+n. a points at A's element (i,0);
// A's element (i+r,p) is a[r*ri+p*rp]. b points at B's row 0, and B's rows
// are n apart, like c's. A product whose A element is ±0 is skipped; a NaN is
// not, as in nonzero: VUCOMISD sets ZF for equal and ZF with PF for a NaN,
// so the product is added when ZF=0 or PF=1.
TEXT ·rowsPairAVX(SB), NOSPLIT, $0-56
	MOVQ   c+0(FP), DI
	MOVQ   a+8(FP), R11
	MOVQ   b+16(FP), R12
	MOVQ   k+24(FP), R13
	MOVQ   n+32(FP), R8
	MOVQ   ri+40(FP), R9
	MOVQ   rp+48(FP), R10
	MOVQ   R8, BX
	SHRQ   $2, BX        // full 4-column blocks left
	SHLQ   $3, R8
	SHLQ   $3, R9
	SHLQ   $3, R10
	VXORPD X8, X8, X8

rows8:
	CMPQ    BX, $2
	JLT     rows4
	MOVQ    R11, SI
	MOVQ    R12, DX
	MOVQ    R13, CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y4
	VMOVUPD (DI)(R8*1), Y1
	VMOVUPD 32(DI)(R8*1), Y5

rows8loop:
	VBROADCASTSD (SI), Y2
	VUCOMISD     X8, X2
	JNE          rows8add0
	JPC          rows8row1

rows8add0:
	VMULPD (DX), Y2, Y6
	VMULPD 32(DX), Y2, Y7
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y4, Y4

rows8row1:
	VBROADCASTSD (SI)(R9*1), Y3
	VUCOMISD     X8, X3
	JNE          rows8add1
	JPC          rows8next

rows8add1:
	VMULPD (DX), Y3, Y6
	VMULPD 32(DX), Y3, Y7
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y5, Y5

rows8next:
	ADDQ    R10, SI
	ADDQ    R8, DX
	DECQ    CX
	JNE     rows8loop
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, 32(DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y5, 32(DI)(R8*1)
	ADDQ    $64, DI
	ADDQ    $64, R12
	SUBQ    $2, BX
	JMP     rows8

rows4:
	TESTQ   BX, BX
	JEQ     rowsdone
	MOVQ    R11, SI
	MOVQ    R12, DX
	MOVQ    R13, CX
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y1

rows4loop:
	VBROADCASTSD (SI), Y2
	VUCOMISD     X8, X2
	JNE          rows4add0
	JPC          rows4row1

rows4add0:
	VMULPD (DX), Y2, Y2
	VADDPD Y2, Y0, Y0

rows4row1:
	VBROADCASTSD (SI)(R9*1), Y3
	VUCOMISD     X8, X3
	JNE          rows4add1
	JPC          rows4next

rows4add1:
	VMULPD (DX), Y3, Y3
	VADDPD Y3, Y1, Y1

rows4next:
	ADDQ    R10, SI
	ADDQ    R8, DX
	DECQ    CX
	JNE     rows4loop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)

rowsdone:
	VZEROUPPER
	RET

// T2STEP is one step of the 2×8 T2 tile: B's values for the block's columns
// 0..3 in lo and 4..7 in hi, A's two values at off(SI) and off(SI)(R9*1).
#define T2STEP(off, lo, hi) \
	VBROADCASTSD off(SI), Y2       \
	VBROADCASTSD off(SI)(R9*1), Y3 \
	VMULPD       lo, Y2, Y6        \
	VADDPD       Y6, Y0, Y0        \
	VMULPD       hi, Y2, Y7        \
	VADDPD       Y7, Y4, Y4        \
	VMULPD       lo, Y3, Y6        \
	VADDPD       Y6, Y1, Y1        \
	VMULPD       hi, Y3, Y7        \
	VADDPD       Y7, Y5, Y5

// TRANSPOSE4 loads four steps of B's rows base, base+k, base+2k and base+3k
// and transposes them, leaving the four rows' values of step q in rq.
#define TRANSPOSE4(base, r0, r1, r2, r3) \
	VMOVUPD    (base), r0                \
	VMOVUPD    (base)(R9*1), r1          \
	VMOVUPD    (base)(R9*2), r2          \
	VMOVUPD    (base)(R10*1), r3         \
	VUNPCKLPD  r1, r0, Y2                \
	VUNPCKHPD  r1, r0, Y3                \
	VUNPCKLPD  r3, r2, Y6                \
	VUNPCKHPD  r3, r2, Y7                \
	VPERM2F128 $0x20, Y6, Y2, r0         \
	VPERM2F128 $0x20, Y7, Y3, r1         \
	VPERM2F128 $0x31, Y6, Y2, r2         \
	VPERM2F128 $0x31, Y7, Y3, r3

// GATHER4 loads one step of B's rows base, base+k, base+2k and base+3k into
// r, using x as scratch.
#define GATHER4(base, r, rx, x) \
	VMOVSD      (base), rx              \
	VMOVHPD     (base)(R9*1), rx, rx    \
	VMOVSD      (base)(R9*2), x         \
	VMOVHPD     (base)(R10*1), x, x     \
	VINSERTF128 $1, x, r, r

// func t2PairAVX(c, a, b *float64, k, n int)
//
// Adds rows i and i+1 of A·Bᵀ into c and c+n. a points at A's row i (row
// i+1 is k further on), b at B's row 0. Each chain starts at +0 and adds
// every product: nothing is skipped. The finished chain is added to c's
// element with c as the first operand (VADDPD chain, c, c), the operand
// order of AddInPlace, so a NaN already in c keeps its payload. Output column j's values are B's row j,
// so the 2×8 tile transposes 4×4 blocks of eight B rows in registers and
// gathers the k%4 steps left over one at a time; the 2×4 tile gathers every
// step.
TEXT ·t2PairAVX(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), R12
	MOVQ b+16(FP), AX
	MOVQ k+24(FP), R13
	MOVQ n+32(FP), R8
	MOVQ R8, BX
	SHRQ $2, BX            // full 4-column blocks left
	SHLQ $3, R8
	MOVQ R13, R9
	SHLQ $3, R9            // B's and A's row stride
	LEAQ (R9)(R9*2), R10

t28:
	CMPQ   BX, $2
	JLT    t24
	MOVQ   R12, SI
	MOVQ   AX, DX
	LEAQ   (AX)(R9*4), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   R13, CX
	SHRQ   $2, CX
	JEQ    t28tail

t28quad:
	TRANSPOSE4(DX, Y8, Y9, Y10, Y11)
	TRANSPOSE4(R11, Y12, Y13, Y14, Y15)
	T2STEP(0, Y8, Y12)
	T2STEP(8, Y9, Y13)
	T2STEP(16, Y10, Y14)
	T2STEP(24, Y11, Y15)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R11
	DECQ CX
	JNE  t28quad

t28tail:
	MOVQ R13, CX
	ANDQ $3, CX
	JEQ  t28done

t28step:
	GATHER4(DX, Y8, X8, X9)
	GATHER4(R11, Y12, X12, X9)
	T2STEP(0, Y8, Y12)
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, R11
	DECQ CX
	JNE  t28step

t28done:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VMOVUPD (DI)(R8*1), Y10
	VMOVUPD 32(DI)(R8*1), Y11
	VADDPD  Y0, Y8, Y8
	VADDPD  Y4, Y9, Y9
	VADDPD  Y1, Y10, Y10
	VADDPD  Y5, Y11, Y11
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, (DI)(R8*1)
	VMOVUPD Y11, 32(DI)(R8*1)
	ADDQ    $64, DI
	LEAQ    (AX)(R9*8), AX
	SUBQ    $2, BX
	JMP     t28

t24:
	TESTQ  BX, BX
	JEQ    t2done
	MOVQ   R12, SI
	MOVQ   AX, DX
	MOVQ   R13, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

t24step:
	GATHER4(DX, Y2, X2, X3)
	VBROADCASTSD (SI), Y3
	VMULPD       Y2, Y3, Y3
	VADDPD       Y3, Y0, Y0
	VBROADCASTSD (SI)(R9*1), Y4
	VMULPD       Y2, Y4, Y4
	VADDPD       Y4, Y1, Y1
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         CX
	JNE          t24step
	VMOVUPD      (DI), Y8
	VMOVUPD      (DI)(R8*1), Y9
	VADDPD       Y0, Y8, Y8
	VADDPD       Y1, Y9, Y9
	VMOVUPD      Y8, (DI)
	VMOVUPD      Y9, (DI)(R8*1)

t2done:
	VZEROUPPER
	RET
