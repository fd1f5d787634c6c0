//go:build amd64 && !purego

#include "textflag.h"

// AVX2 mirrors of the Go float kernels in matmul.go (gemmRowGo,
// gemmRowOffGo, axpyRow) and im2col.go (addRowGo). Every lane
// performs VMULPS then VADDPS — never FMA — in the Go kernel's order,
// so each output element goes through exactly the scalar sequence
// acc = acc + float32(a·b) and the bits match the GOAMD64=v1 build of
// the Go code. Loads and stores stay inside [0, n): the 32- and
// 8-column tiles are entered only while that many columns remain, the
// rest is scalar. VZEROUPPER precedes every RET.

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7 EBX bit 5), the CPU
// has AVX and OSXSAVE (leaf 1 ECX bits 28 and 27), and the OS saves
// XMM and YMM state (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func gemmRowAVX2(dst, a, b *float32, k, n, ldb int)
//
// dst[j] = Σ_p a[p]·b[p·ldb+j] for j in [0,n), p increasing, each sum
// starting from +0 and skipping a[p] == ±0 as gemmRowGo does. Column
// tiles are the outer loop so a tile's accumulators stay in registers
// across the whole p loop. Requires k > 0 and n > 0.
TEXT ·gemmRowAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVQ ldb+40(FP), R9
	SHLQ $2, R9 // row stride of b in bytes

row32:
	CMPQ   R8, $32
	JLT    row8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

row32p:
	MOVL         (R10), AX
	ADDL         AX, AX // drops the sign bit: zero iff a[p] is ±0
	JZ           row32skip
	VBROADCASTSS (R10), Y4
	VMULPS       (R11), Y4, Y5
	VMULPS       32(R11), Y4, Y6
	VMULPS       64(R11), Y4, Y7
	VMULPS       96(R11), Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3

row32skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     row32p
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, R8
	JMP     row32

row8:
	CMPQ   R8, $8
	JLT    row1
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

row8p:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           row8skip
	VBROADCASTSS (R10), Y4
	VMULPS       (R11), Y4, Y5
	VADDPS       Y5, Y0, Y0

row8skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     row8p
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, R8
	JMP     row8

row1:
	TESTQ  R8, R8
	JZ     rowdone
	VXORPS X0, X0, X0
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

row1p:
	MOVL   (R10), AX
	ADDL   AX, AX
	JZ     row1skip
	VMOVSS (R10), X4
	VMULSS (R11), X4, X5
	VADDSS X5, X0, X0

row1skip:
	ADDQ   $4, R10
	ADDQ   R9, R11
	DECQ   R12
	JNZ    row1p
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, DX
	DECQ   R8
	JMP    row1

rowdone:
	VZEROUPPER
	RET

// func gemmRowOffAVX2(dst, a, b *float32, off *int, k, n int)
//
// dst[j] = Σ_p a[p]·b[off[p]+j] for j in [0,n): gemmRowAVX2 with row p
// of b found at element offset off[p] (loaded per p and applied as a
// scaled index) instead of p·ldb, as gemmRowOffGo does. Same tiles,
// same order, same ±0 skip. Requires k > 0 and n > 0.
TEXT ·gemmRowOffAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ off+24(FP), BX
	MOVQ k+32(FP), CX
	MOVQ n+40(FP), R8

off32:
	CMPQ   R8, $32
	JLT    off8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   CX, R12

off32p:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           off32skip
	MOVQ         (R11), R13
	VBROADCASTSS (R10), Y4
	VMULPS       (DX)(R13*4), Y4, Y5
	VMULPS       32(DX)(R13*4), Y4, Y6
	VMULPS       64(DX)(R13*4), Y4, Y7
	VMULPS       96(DX)(R13*4), Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3

off32skip:
	ADDQ    $4, R10
	ADDQ    $8, R11
	DECQ    R12
	JNZ     off32p
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, R8
	JMP     off32

off8:
	CMPQ   R8, $8
	JLT    off1
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   CX, R12

off8p:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           off8skip
	MOVQ         (R11), R13
	VBROADCASTSS (R10), Y4
	VMULPS       (DX)(R13*4), Y4, Y5
	VADDPS       Y5, Y0, Y0

off8skip:
	ADDQ    $4, R10
	ADDQ    $8, R11
	DECQ    R12
	JNZ     off8p
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, R8
	JMP     off8

off1:
	TESTQ  R8, R8
	JZ     offdone
	VXORPS X0, X0, X0
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   CX, R12

off1p:
	MOVL   (R10), AX
	ADDL   AX, AX
	JZ     off1skip
	MOVQ   (R11), R13
	VMOVSS (R10), X4
	VMULSS (DX)(R13*4), X4, X5
	VADDSS X5, X0, X0

off1skip:
	ADDQ   $4, R10
	ADDQ   $8, R11
	DECQ   R12
	JNZ    off1p
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, DX
	DECQ   R8
	JMP    off1

offdone:
	VZEROUPPER
	RET

// func axpyAVX2(dst, b *float32, av float32, n int)
//
// dst[j] += av·b[j] for j in [0,n): axpyRow, eight lanes at a time.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         b+8(FP), SI
	VBROADCASTSS av+16(FP), Y4
	MOVQ         n+24(FP), CX

axpy32:
	CMPQ    CX, $32
	JLT     axpy8
	VMULPS  (SI), Y4, Y0
	VMULPS  32(SI), Y4, Y1
	VMULPS  64(SI), Y4, Y2
	VMULPS  96(SI), Y4, Y3
	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  64(DI), Y2, Y2
	VADDPS  96(DI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     axpy32

axpy8:
	CMPQ    CX, $8
	JLT     axpy1
	VMULPS  (SI), Y4, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     axpy8

axpy1:
	TESTQ  CX, CX
	JZ     axpydone
	VMULSS (SI), X4, X0
	VADDSS (DI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func addAVX2(dst, src *float32, n int)
//
// dst[j] += src[j] for j in [0,n): addRowGo, eight lanes at a time.
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add32:
	CMPQ    CX, $32
	JLT     add8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     add32

add8:
	CMPQ    CX, $8
	JLT     add1
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     add8

add1:
	TESTQ  CX, CX
	JZ     adddone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    add1

adddone:
	VZEROUPPER
	RET
