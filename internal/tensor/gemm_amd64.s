//go:build amd64 && !purego

#include "textflag.h"

// AVX2 mirrors of the Go kernels in matmul.go (gemmRowGo), int8.go
// (int8RowGo), im2col.go (addRowGo) and conv.go (dwLanesGo). Every
// float lane performs VMULPS then VADDPS — never FMA — in the Go
// kernel's order, so each output element goes through exactly the
// scalar sequence acc = acc + float32(a·b) (in the lane kernel,
// dotUnroll4's grouping of four products per add) and the bits match
// the GOAMD64=v1 build of the Go code; the int8 row kernel's int32
// sums are exact, so its order is free. Both row kernels find row p of
// b the same way, through a table walked offStep bytes per step while
// the row base moves rowStep bytes: the offset table itself under a
// fixed base, or, for a row stride, a fixed table ({0}, or {0, ld} for
// the int8 kernel's pairs) under a base that moves by the stride. The
// float row kernel's loads
// and stores stay inside [0, n): its 32- and 8-column tiles are
// entered only while that many columns remain, the rest is scalar.
// VZEROUPPER precedes every RET.
//
// The two row kernels and the lane kernel also have an AVX-512 tier
// (after the AVX2 routines): the same sums over a 64-column-multiple
// prefix in ZMM tiles, or over a 16-lane-multiple prefix in 16-lane
// blocks, with the AVX2 routine taking the rest.

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

// func gemmRowAVX2(dst, a, b *float32, off *int, offStep, rowStep, k, n int)
//
// gemmRowGo in YMM lanes: dst[j] = Σ_p a[p]·b[o_p+j] for j in [0,n),
// p increasing, each sum starting from +0 and skipping a[p] == ±0.
// Row p of b is found as int8RowAVX2 finds it: the element offset o_p
// is read from a table that advances offStep bytes per coefficient
// while the row base advances rowStep bytes (the gemmRow wrapper's two
// addressing modes). One LEAQ per coefficient forms the row's address,
// so every VMULPS reads base plus displacement: with an indexed memory
// operand in each VMULPS the stride mode read 6–21 % slower in the
// kernel benchmarks. Column tiles are the
// outer loop so a tile's accumulators stay in registers across the
// whole p loop. Requires k > 0 and n > 0.
TEXT ·gemmRowAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ off+24(FP), BX
	MOVQ offStep+32(FP), R9
	MOVQ rowStep+40(FP), R15
	MOVQ k+48(FP), CX
	MOVQ n+56(FP), R8

row32:
	CMPQ   R8, $32
	JLT    row8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   DX, R12
	MOVQ   CX, R14

row32p:
	MOVL         (R10), AX
	ADDL         AX, AX // drops the sign bit: zero iff a[p] is ±0
	JZ           row32skip
	MOVQ         (R11), R13
	LEAQ         (R12)(R13*4), R13
	VBROADCASTSS (R10), Y4
	VMULPS       (R13), Y4, Y5
	VMULPS       32(R13), Y4, Y6
	VMULPS       64(R13), Y4, Y7
	VMULPS       96(R13), Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3

row32skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	ADDQ    R15, R12
	DECQ    R14
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
	MOVQ   BX, R11
	MOVQ   DX, R12
	MOVQ   CX, R14

row8p:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           row8skip
	MOVQ         (R11), R13
	LEAQ         (R12)(R13*4), R13
	VBROADCASTSS (R10), Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0

row8skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	ADDQ    R15, R12
	DECQ    R14
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
	MOVQ   BX, R11
	MOVQ   DX, R12
	MOVQ   CX, R14

row1p:
	MOVL   (R10), AX
	ADDL   AX, AX
	JZ     row1skip
	MOVQ   (R11), R13
	LEAQ   (R12)(R13*4), R13
	VMOVSS (R10), X4
	VMULSS (R13), X4, X5
	VADDSS X5, X0, X0

row1skip:
	ADDQ   $4, R10
	ADDQ   R9, R11
	ADDQ   R15, R12
	DECQ   R14
	JNZ    row1p
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, DX
	DECQ   R8
	JMP    row1

rowdone:
	VZEROUPPER
	RET

// func int8RowAVX2(dst *float32, a, b *int8, off *int, offStep, rowStep, k, n int, scale float32)
//
// int8RowGo in int32 lanes: dst[j] = scale · float32(Σ_p a[p]·b[o_p+j])
// for j in [0,n). The offsets come from a table that advances offStep
// bytes per pair of coefficients while the row base advances rowStep
// bytes (the int8Row wrapper's two addressing modes). Per pair
// (a0, a1), broadcast as two int16, the two 16-byte runs of b at
// o_p + j and o_{p+1} + j are interleaved byte by byte (VPUNPCKLBW,
// VPUNPCKHBW) and sign-extended (VPMOVSXBW), so VPMADDWD adds
// a0·b0[j] + a1·b1[j] into column j's int32 lane: that sum is at most
// 2·128² = 32768 in magnitude, far inside int32 (VPMADDWD wraps only
// on −32768 words), so no pair overflows, and int32
// addition, wrapping included, does not depend on order, so each lane
// ends on int8RowGo's sum. A last odd coefficient runs as the pair
// (a0, 0) over its one row. At the end of a tile VCVTDQ2PS rounds each
// sum as float32(int32) does (round to nearest even under the default
// MXCSR) and VMULPS scales it. Column tiles are the outer loop, so a
// tile's accumulators stay in registers across all k: 32 columns while
// that many remain, then 16, then 8. Requires k > 0 and n > 0 a
// multiple of 8: the int8Row wrapper runs a row's last n mod 8 columns
// as one more 8-column call that overlaps the tile before it.
TEXT ·int8RowAVX2(SB), NOSPLIT, $0-68
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         off+24(FP), BX
	MOVQ         offStep+32(FP), R9
	MOVQ         rowStep+40(FP), R15
	MOVQ         k+48(FP), CX
	MOVQ         n+56(FP), R8
	VBROADCASTSS scale+64(FP), Y15

i8t32:
	CMPQ  R8, $32
	JLT   i8t16
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  SI, R10
	MOVQ  BX, R11
	MOVQ  DX, R12
	MOVQ  CX, AX

i8t32p:
	CMPQ         AX, $2
	JLT          i8t32odd
	VPBROADCASTW (R10), X8
	VPMOVSXBW    X8, Y8
	MOVQ         (R11), R13
	MOVQ         8(R11), R14
	ADDQ         $2, R10
	ADDQ         R9, R11
	SUBQ         $2, AX

i8t32mac:
	VMOVDQU    (R12)(R13*1), X9
	VPUNPCKHBW (R12)(R14*1), X9, X10
	VPUNPCKLBW (R12)(R14*1), X9, X9
	VPMOVSXBW  X9, Y9
	VPMOVSXBW  X10, Y10
	VPMADDWD   Y8, Y9, Y9
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y9, Y0, Y0
	VPADDD     Y10, Y1, Y1
	VMOVDQU    16(R12)(R13*1), X11
	VPUNPCKHBW 16(R12)(R14*1), X11, X12
	VPUNPCKLBW 16(R12)(R14*1), X11, X11
	VPMOVSXBW  X11, Y11
	VPMOVSXBW  X12, Y12
	VPMADDWD   Y8, Y11, Y11
	VPMADDWD   Y8, Y12, Y12
	VPADDD     Y11, Y2, Y2
	VPADDD     Y12, Y3, Y3
	ADDQ       R15, R12
	JMP        i8t32p

i8t32odd:
	TESTQ        AX, AX
	JZ           i8t32st
	MOVBLSX      (R10), AX
	MOVWLZX      AX, AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8
	MOVQ         (R11), R13
	MOVQ         R13, R14
	XORL         AX, AX
	JMP          i8t32mac

i8t32st:
	VCVTDQ2PS Y0, Y0
	VCVTDQ2PS Y1, Y1
	VCVTDQ2PS Y2, Y2
	VCVTDQ2PS Y3, Y3
	VMULPS    Y15, Y0, Y0
	VMULPS    Y15, Y1, Y1
	VMULPS    Y15, Y2, Y2
	VMULPS    Y15, Y3, Y3
	VMOVUPS   Y0, (DI)
	VMOVUPS   Y1, 32(DI)
	VMOVUPS   Y2, 64(DI)
	VMOVUPS   Y3, 96(DI)
	ADDQ      $128, DI
	ADDQ      $32, DX
	SUBQ      $32, R8
	JMP       i8t32

i8t16:
	CMPQ  R8, $16
	JLT   i8t8
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  SI, R10
	MOVQ  BX, R11
	MOVQ  DX, R12
	MOVQ  CX, AX

i8t16p:
	CMPQ         AX, $2
	JLT          i8t16odd
	VPBROADCASTW (R10), X8
	VPMOVSXBW    X8, Y8
	MOVQ         (R11), R13
	MOVQ         8(R11), R14
	ADDQ         $2, R10
	ADDQ         R9, R11
	SUBQ         $2, AX

i8t16mac:
	VMOVDQU    (R12)(R13*1), X9
	VPUNPCKHBW (R12)(R14*1), X9, X10
	VPUNPCKLBW (R12)(R14*1), X9, X9
	VPMOVSXBW  X9, Y9
	VPMOVSXBW  X10, Y10
	VPMADDWD   Y8, Y9, Y9
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y9, Y0, Y0
	VPADDD     Y10, Y1, Y1
	ADDQ       R15, R12
	JMP        i8t16p

i8t16odd:
	TESTQ        AX, AX
	JZ           i8t16st
	MOVBLSX      (R10), AX
	MOVWLZX      AX, AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8
	MOVQ         (R11), R13
	MOVQ         R13, R14
	XORL         AX, AX
	JMP          i8t16mac

i8t16st:
	VCVTDQ2PS Y0, Y0
	VCVTDQ2PS Y1, Y1
	VMULPS    Y15, Y0, Y0
	VMULPS    Y15, Y1, Y1
	VMOVUPS   Y0, (DI)
	VMOVUPS   Y1, 32(DI)
	ADDQ      $64, DI
	ADDQ      $16, DX
	SUBQ      $16, R8
	JMP       i8t16

i8t8:
	CMPQ  R8, $8
	JLT   i8done
	VPXOR Y0, Y0, Y0
	MOVQ  SI, R10
	MOVQ  BX, R11
	MOVQ  DX, R12
	MOVQ  CX, AX

i8t8p:
	CMPQ         AX, $2
	JLT          i8t8odd
	VPBROADCASTW (R10), X8
	VPMOVSXBW    X8, Y8
	MOVQ         (R11), R13
	MOVQ         8(R11), R14
	ADDQ         $2, R10
	ADDQ         R9, R11
	SUBQ         $2, AX

i8t8mac:
	VMOVQ      (R12)(R13*1), X9
	VMOVQ      (R12)(R14*1), X10
	VPUNPCKLBW X10, X9, X9
	VPMOVSXBW  X9, Y9
	VPMADDWD   Y8, Y9, Y9
	VPADDD     Y9, Y0, Y0
	ADDQ       R15, R12
	JMP        i8t8p

i8t8odd:
	TESTQ        AX, AX
	JZ           i8t8st
	MOVBLSX      (R10), AX
	MOVWLZX      AX, AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8
	MOVQ         (R11), R13
	MOVQ         R13, R14
	XORL         AX, AX
	JMP          i8t8mac

i8t8st:
	VCVTDQ2PS Y0, Y0
	VMULPS    Y15, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $8, DX
	SUBQ      $8, R8
	JMP       i8t8

i8done:
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

// func dwLanesAVX2(acc, gt, lines *float32, hw, nl, ldg, nr int)
//
// The conv weight gradient's lane kernel (dwLanesGo is its spec): for
// each of the nr rows of lines (hw floats apart) and each of the first
// nl lanes of gt ([hw, ldg], the gradient transposed), acc[r·ldg+lane]
// is one chain from +0 over the row's positions in dotUnroll4's order.
// Per four positions the lane's products g·l are summed as
// ((g₀l₀ + g₁l₁) + g₂l₂) + g₃l₃ — VMULPS per product, VADDPS per sum,
// each sum with the later product as its first operand and the chain
// first in its own add, as go1.24 compiles dotUnroll4, so even a NaN's
// payload matches it there — and the group is added into the chain;
// leftover positions add one product each. Four rows share each load
// of gt while four remain, then one at a time; within a pass the lanes
// go eight per YMM block. Requires hw > 0, nr > 0 and nl a positive
// multiple of 8.
TEXT ·dwLanesAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ gt+8(FP), SI
	MOVQ lines+16(FP), DX
	MOVQ hw+24(FP), CX
	MOVQ nl+32(FP), R8
	MOVQ ldg+40(FP), R9
	MOVQ nr+48(FP), R10
	SHLQ $2, R8 // lanes in bytes
	SHLQ $2, R9 // row stride of gt and acc in bytes
	MOVQ CX, R14
	SHLQ $2, R14 // row stride of lines in bytes

dwrows4:
	CMPQ R10, $4
	JLT  dwrows1
	XORQ R11, R11

dwblk4:
	CMPQ   R11, R8
	JGE    dwnext4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ   (SI)(R11*1), R12
	MOVQ   DX, R13
	LEAQ   (DX)(R14*2), BX
	MOVQ   CX, AX

dwgrp4:
	CMPQ         AX, $4
	JLT          dwtail4
	VMOVUPS      (R12), Y8
	VMOVUPS      (R12)(R9*1), Y9
	LEAQ         (R12)(R9*2), R12
	VMOVUPS      (R12), Y10
	VMOVUPS      (R12)(R9*1), Y11
	LEAQ         (R12)(R9*2), R12
	VBROADCASTSS (R13), Y12
	VMULPS       Y12, Y8, Y4
	VBROADCASTSS 4(R13), Y12
	VMULPS       Y12, Y9, Y13
	VADDPS       Y4, Y13, Y4
	VBROADCASTSS 8(R13), Y12
	VMULPS       Y12, Y10, Y13
	VADDPS       Y4, Y13, Y4
	VBROADCASTSS 12(R13), Y12
	VMULPS       Y12, Y11, Y13
	VADDPS       Y4, Y13, Y4
	VADDPS       Y4, Y0, Y0
	VBROADCASTSS (R13)(R14*1), Y14
	VMULPS       Y14, Y8, Y5
	VBROADCASTSS 4(R13)(R14*1), Y14
	VMULPS       Y14, Y9, Y15
	VADDPS       Y5, Y15, Y5
	VBROADCASTSS 8(R13)(R14*1), Y14
	VMULPS       Y14, Y10, Y15
	VADDPS       Y5, Y15, Y5
	VBROADCASTSS 12(R13)(R14*1), Y14
	VMULPS       Y14, Y11, Y15
	VADDPS       Y5, Y15, Y5
	VADDPS       Y5, Y1, Y1
	VBROADCASTSS (BX), Y12
	VMULPS       Y12, Y8, Y6
	VBROADCASTSS 4(BX), Y12
	VMULPS       Y12, Y9, Y13
	VADDPS       Y6, Y13, Y6
	VBROADCASTSS 8(BX), Y12
	VMULPS       Y12, Y10, Y13
	VADDPS       Y6, Y13, Y6
	VBROADCASTSS 12(BX), Y12
	VMULPS       Y12, Y11, Y13
	VADDPS       Y6, Y13, Y6
	VADDPS       Y6, Y2, Y2
	VBROADCASTSS (BX)(R14*1), Y14
	VMULPS       Y14, Y8, Y7
	VBROADCASTSS 4(BX)(R14*1), Y14
	VMULPS       Y14, Y9, Y15
	VADDPS       Y7, Y15, Y7
	VBROADCASTSS 8(BX)(R14*1), Y14
	VMULPS       Y14, Y10, Y15
	VADDPS       Y7, Y15, Y7
	VBROADCASTSS 12(BX)(R14*1), Y14
	VMULPS       Y14, Y11, Y15
	VADDPS       Y7, Y15, Y7
	VADDPS       Y7, Y3, Y3
	ADDQ         $16, R13
	ADDQ         $16, BX
	SUBQ         $4, AX
	JMP          dwgrp4

dwtail4:
	TESTQ        AX, AX
	JZ           dwstore4
	VMOVUPS      (R12), Y8
	VBROADCASTSS (R13), Y12
	VMULPS       Y12, Y8, Y13
	VADDPS       Y13, Y0, Y0
	VBROADCASTSS (R13)(R14*1), Y14
	VMULPS       Y14, Y8, Y15
	VADDPS       Y15, Y1, Y1
	VBROADCASTSS (BX), Y12
	VMULPS       Y12, Y8, Y13
	VADDPS       Y13, Y2, Y2
	VBROADCASTSS (BX)(R14*1), Y14
	VMULPS       Y14, Y8, Y15
	VADDPS       Y15, Y3, Y3
	ADDQ         R9, R12
	ADDQ         $4, R13
	ADDQ         $4, BX
	DECQ         AX
	JMP          dwtail4

dwstore4:
	LEAQ    (DI)(R11*1), R12
	VMOVUPS Y0, (R12)
	VMOVUPS Y1, (R12)(R9*1)
	LEAQ    (R12)(R9*2), R12
	VMOVUPS Y2, (R12)
	VMOVUPS Y3, (R12)(R9*1)
	ADDQ    $32, R11
	JMP     dwblk4

dwnext4:
	LEAQ (DX)(R14*4), DX
	LEAQ (DI)(R9*4), DI
	SUBQ $4, R10
	JMP  dwrows4

dwrows1:
	TESTQ R10, R10
	JZ    dwdone
	XORQ  R11, R11

dwblk1:
	CMPQ   R11, R8
	JGE    dwnext1
	VXORPS Y0, Y0, Y0
	LEAQ   (SI)(R11*1), R12
	MOVQ   DX, R13
	MOVQ   CX, AX

dwgrp1:
	CMPQ         AX, $4
	JLT          dwtail1
	VMOVUPS      (R12), Y8
	VMOVUPS      (R12)(R9*1), Y9
	LEAQ         (R12)(R9*2), R12
	VMOVUPS      (R12), Y10
	VMOVUPS      (R12)(R9*1), Y11
	LEAQ         (R12)(R9*2), R12
	VBROADCASTSS (R13), Y12
	VMULPS       Y12, Y8, Y4
	VBROADCASTSS 4(R13), Y12
	VMULPS       Y12, Y9, Y13
	VADDPS       Y4, Y13, Y4
	VBROADCASTSS 8(R13), Y12
	VMULPS       Y12, Y10, Y13
	VADDPS       Y4, Y13, Y4
	VBROADCASTSS 12(R13), Y12
	VMULPS       Y12, Y11, Y13
	VADDPS       Y4, Y13, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         $16, R13
	SUBQ         $4, AX
	JMP          dwgrp1

dwtail1:
	TESTQ        AX, AX
	JZ           dwstore1
	VMOVUPS      (R12), Y8
	VBROADCASTSS (R13), Y12
	VMULPS       Y12, Y8, Y13
	VADDPS       Y13, Y0, Y0
	ADDQ         R9, R12
	ADDQ         $4, R13
	DECQ         AX
	JMP          dwtail1

dwstore1:
	LEAQ    (DI)(R11*1), R12
	VMOVUPS Y0, (R12)
	ADDQ    $32, R11
	JMP     dwblk1

dwnext1:
	ADDQ R14, DX
	ADDQ R9, DI
	DECQ R10
	JMP  dwrows1

dwdone:
	VZEROUPPER
	RET

// func cpuHasAVX512() bool
//
// The AVX-512 tier is usable when CPUID reports AVX512F (leaf 7 EBX
// bit 16), the CPU has OSXSAVE (leaf 1 ECX bit 27), and the OS saves
// XMM, YMM, opmask and both halves of the ZMM state (XCR0 bits 1, 2,
// 5, 6 and 7: mask 0xE6). Only AVX512F instructions are used: the
// tiles are zeroed with VPXORD, since VXORPS on ZMM is AVX512DQ.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $16, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func gemmRowAVX512(dst, a, b *float32, off *int, offStep, rowStep, k, n int)
//
// gemmRowAVX2's sums over the first n columns in ZMM tiles: 128
// columns (eight 16-lane chains) while that many remain, then 64
// (four chains). Same addressing, same order from +0, same ±0 skip,
// VMULPS then VADDPS. Requires k > 0, n > 0 and n%64 == 0: the gemmRow
// wrapper hands the < 64 columns after the prefix to gemmRowAVX2.
TEXT ·gemmRowAVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ off+24(FP), BX
	MOVQ offStep+32(FP), R9
	MOVQ rowStep+40(FP), R15
	MOVQ k+48(FP), CX
	MOVQ n+56(FP), R8

zrow128:
	CMPQ   R8, $128
	JLT    zrow64
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   DX, R12
	MOVQ   CX, R14

zrow128p:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           zrow128skip
	MOVQ         (R11), R13
	LEAQ         (R12)(R13*4), R13
	VBROADCASTSS (R10), Z8
	VMULPS       (R13), Z8, Z9
	VMULPS       64(R13), Z8, Z10
	VMULPS       128(R13), Z8, Z11
	VMULPS       192(R13), Z8, Z12
	VMULPS       256(R13), Z8, Z13
	VMULPS       320(R13), Z8, Z14
	VMULPS       384(R13), Z8, Z15
	VMULPS       448(R13), Z8, Z16
	VADDPS       Z9, Z0, Z0
	VADDPS       Z10, Z1, Z1
	VADDPS       Z11, Z2, Z2
	VADDPS       Z12, Z3, Z3
	VADDPS       Z13, Z4, Z4
	VADDPS       Z14, Z5, Z5
	VADDPS       Z15, Z6, Z6
	VADDPS       Z16, Z7, Z7

zrow128skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	ADDQ    R15, R12
	DECQ    R14
	JNZ     zrow128p
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	ADDQ    $512, DI
	ADDQ    $512, DX
	SUBQ    $128, R8
	JMP     zrow128

zrow64:
	CMPQ   R8, $64
	JLT    zrowdone
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   DX, R12
	MOVQ   CX, R14

zrow64p:
	MOVL         (R10), AX
	ADDL         AX, AX
	JZ           zrow64skip
	MOVQ         (R11), R13
	LEAQ         (R12)(R13*4), R13
	VBROADCASTSS (R10), Z8
	VMULPS       (R13), Z8, Z9
	VMULPS       64(R13), Z8, Z10
	VMULPS       128(R13), Z8, Z11
	VMULPS       192(R13), Z8, Z12
	VADDPS       Z9, Z0, Z0
	VADDPS       Z10, Z1, Z1
	VADDPS       Z11, Z2, Z2
	VADDPS       Z12, Z3, Z3

zrow64skip:
	ADDQ    $4, R10
	ADDQ    R9, R11
	ADDQ    R15, R12
	DECQ    R14
	JNZ     zrow64p
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $64, R8
	JMP     zrow64

zrowdone:
	VZEROUPPER
	RET

// func dwLanesAVX512(acc, gt, lines *float32, hw, nl, ldg, nr int)
//
// dwLanesAVX2's chains sixteen lanes per ZMM block, the row's value
// broadcast from memory into each VMULPS. Requires nl a positive
// multiple of 16: the dwLanes wrapper hands an 8-lane rest to
// dwLanesAVX2.
TEXT ·dwLanesAVX512(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ gt+8(FP), SI
	MOVQ lines+16(FP), DX
	MOVQ hw+24(FP), CX
	MOVQ nl+32(FP), R8
	MOVQ ldg+40(FP), R9
	MOVQ nr+48(FP), R10
	SHLQ $2, R8 // lanes in bytes
	SHLQ $2, R9 // row stride of gt and acc in bytes
	MOVQ CX, R14
	SHLQ $2, R14 // row stride of lines in bytes

zdwrows4:
	CMPQ R10, $4
	JLT  zdwrows1
	XORQ R11, R11

zdwblk4:
	CMPQ   R11, R8
	JGE    zdwnext4
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	LEAQ   (SI)(R11*1), R12
	MOVQ   DX, R13
	LEAQ   (DX)(R14*2), BX
	MOVQ   CX, AX

zdwgrp4:
	CMPQ        AX, $4
	JLT         zdwtail4
	VMOVUPS     (R12), Z8
	VMOVUPS     (R12)(R9*1), Z9
	LEAQ        (R12)(R9*2), R12
	VMOVUPS     (R12), Z10
	VMOVUPS     (R12)(R9*1), Z11
	LEAQ        (R12)(R9*2), R12
	VMULPS.BCST (R13), Z8, Z4
	VMULPS.BCST 4(R13), Z9, Z13
	VADDPS      Z4, Z13, Z4
	VMULPS.BCST 8(R13), Z10, Z13
	VADDPS      Z4, Z13, Z4
	VMULPS.BCST 12(R13), Z11, Z13
	VADDPS      Z4, Z13, Z4
	VADDPS      Z4, Z0, Z0
	VMULPS.BCST (R13)(R14*1), Z8, Z5
	VMULPS.BCST 4(R13)(R14*1), Z9, Z15
	VADDPS      Z5, Z15, Z5
	VMULPS.BCST 8(R13)(R14*1), Z10, Z15
	VADDPS      Z5, Z15, Z5
	VMULPS.BCST 12(R13)(R14*1), Z11, Z15
	VADDPS      Z5, Z15, Z5
	VADDPS      Z5, Z1, Z1
	VMULPS.BCST (BX), Z8, Z6
	VMULPS.BCST 4(BX), Z9, Z13
	VADDPS      Z6, Z13, Z6
	VMULPS.BCST 8(BX), Z10, Z13
	VADDPS      Z6, Z13, Z6
	VMULPS.BCST 12(BX), Z11, Z13
	VADDPS      Z6, Z13, Z6
	VADDPS      Z6, Z2, Z2
	VMULPS.BCST (BX)(R14*1), Z8, Z7
	VMULPS.BCST 4(BX)(R14*1), Z9, Z15
	VADDPS      Z7, Z15, Z7
	VMULPS.BCST 8(BX)(R14*1), Z10, Z15
	VADDPS      Z7, Z15, Z7
	VMULPS.BCST 12(BX)(R14*1), Z11, Z15
	VADDPS      Z7, Z15, Z7
	VADDPS      Z7, Z3, Z3
	ADDQ        $16, R13
	ADDQ        $16, BX
	SUBQ        $4, AX
	JMP         zdwgrp4

zdwtail4:
	TESTQ       AX, AX
	JZ          zdwstore4
	VMOVUPS     (R12), Z8
	VMULPS.BCST (R13), Z8, Z13
	VADDPS      Z13, Z0, Z0
	VMULPS.BCST (R13)(R14*1), Z8, Z15
	VADDPS      Z15, Z1, Z1
	VMULPS.BCST (BX), Z8, Z13
	VADDPS      Z13, Z2, Z2
	VMULPS.BCST (BX)(R14*1), Z8, Z15
	VADDPS      Z15, Z3, Z3
	ADDQ        R9, R12
	ADDQ        $4, R13
	ADDQ        $4, BX
	DECQ        AX
	JMP         zdwtail4

zdwstore4:
	LEAQ    (DI)(R11*1), R12
	VMOVUPS Z0, (R12)
	VMOVUPS Z1, (R12)(R9*1)
	LEAQ    (R12)(R9*2), R12
	VMOVUPS Z2, (R12)
	VMOVUPS Z3, (R12)(R9*1)
	ADDQ    $64, R11
	JMP     zdwblk4

zdwnext4:
	LEAQ (DX)(R14*4), DX
	LEAQ (DI)(R9*4), DI
	SUBQ $4, R10
	JMP  zdwrows4

zdwrows1:
	TESTQ R10, R10
	JZ    zdwdone
	XORQ  R11, R11

zdwblk1:
	CMPQ   R11, R8
	JGE    zdwnext1
	VPXORD Z0, Z0, Z0
	LEAQ   (SI)(R11*1), R12
	MOVQ   DX, R13
	MOVQ   CX, AX

zdwgrp1:
	CMPQ        AX, $4
	JLT         zdwtail1
	VMOVUPS     (R12), Z8
	VMOVUPS     (R12)(R9*1), Z9
	LEAQ        (R12)(R9*2), R12
	VMOVUPS     (R12), Z10
	VMOVUPS     (R12)(R9*1), Z11
	LEAQ        (R12)(R9*2), R12
	VMULPS.BCST (R13), Z8, Z4
	VMULPS.BCST 4(R13), Z9, Z13
	VADDPS      Z4, Z13, Z4
	VMULPS.BCST 8(R13), Z10, Z13
	VADDPS      Z4, Z13, Z4
	VMULPS.BCST 12(R13), Z11, Z13
	VADDPS      Z4, Z13, Z4
	VADDPS      Z4, Z0, Z0
	ADDQ        $16, R13
	SUBQ        $4, AX
	JMP         zdwgrp1

zdwtail1:
	TESTQ       AX, AX
	JZ          zdwstore1
	VMOVUPS     (R12), Z8
	VMULPS.BCST (R13), Z8, Z13
	VADDPS      Z13, Z0, Z0
	ADDQ        R9, R12
	ADDQ        $4, R13
	DECQ        AX
	JMP         zdwtail1

zdwstore1:
	LEAQ    (DI)(R11*1), R12
	VMOVUPS Z0, (R12)
	ADDQ    $64, R11
	JMP     zdwblk1

zdwnext1:
	ADDQ R14, DX
	ADDQ R9, DI
	DECQ R10
	JMP  zdwrows1

zdwdone:
	VZEROUPPER
	RET

// func cpuHasAVX512BW() bool
//
// CPUID leaf 7 EBX bit 30: the CPU has AVX512BW, which the int8 row
// kernel's ZMM tier needs (VPMOVSXBW and VPMADDWD on ZMM). The OS
// state it needs is cpuHasAVX512's, which the caller checks first.
TEXT ·cpuHasAVX512BW(SB), NOSPLIT, $0-1
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $30, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func int8RowAVX512(dst *float32, a, b *int8, off *int, offStep, rowStep, k, n int, scale float32)
//
// int8RowAVX2's sums over the first n columns in 64-column ZMM tiles
// (AVX512BW). Per pair, each 32-byte run of b is interleaved with its
// partner within 128-bit lanes, so a 32-column step's two
// accumulators hold columns 0–7 and 16–23, and 8–15 and 24–31; the
// tile's stores put each 8-column half back in place. Requires k > 0,
// n > 0 and n%64 == 0: the int8Row wrapper hands the rest to
// int8RowAVX2.
TEXT ·int8RowAVX512(SB), NOSPLIT, $0-68
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         off+24(FP), BX
	MOVQ         offStep+32(FP), R9
	MOVQ         rowStep+40(FP), R15
	MOVQ         k+48(FP), CX
	MOVQ         n+56(FP), R8
	VBROADCASTSS scale+64(FP), Z15

zi8t64:
	CMPQ   R8, $64
	JLT    zi8done
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   DX, R12
	MOVQ   CX, AX

zi8t64p:
	CMPQ         AX, $2
	JLT          zi8t64odd
	VPBROADCASTW (R10), Y8
	VPMOVSXBW    Y8, Z8
	MOVQ         (R11), R13
	MOVQ         8(R11), R14
	ADDQ         $2, R10
	ADDQ         R9, R11
	SUBQ         $2, AX

zi8t64mac:
	VMOVDQU    (R12)(R13*1), Y9
	VPUNPCKHBW (R12)(R14*1), Y9, Y10
	VPUNPCKLBW (R12)(R14*1), Y9, Y9
	VPMOVSXBW  Y9, Z9
	VPMOVSXBW  Y10, Z10
	VPMADDWD   Z8, Z9, Z9
	VPMADDWD   Z8, Z10, Z10
	VPADDD     Z9, Z0, Z0
	VPADDD     Z10, Z1, Z1
	VMOVDQU    32(R12)(R13*1), Y11
	VPUNPCKHBW 32(R12)(R14*1), Y11, Y12
	VPUNPCKLBW 32(R12)(R14*1), Y11, Y11
	VPMOVSXBW  Y11, Z11
	VPMOVSXBW  Y12, Z12
	VPMADDWD   Z8, Z11, Z11
	VPMADDWD   Z8, Z12, Z12
	VPADDD     Z11, Z2, Z2
	VPADDD     Z12, Z3, Z3
	ADDQ       R15, R12
	JMP        zi8t64p

zi8t64odd:
	TESTQ        AX, AX
	JZ           zi8t64st
	MOVBLSX      (R10), AX
	MOVWLZX      AX, AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Z8
	MOVQ         (R11), R13
	MOVQ         R13, R14
	XORL         AX, AX
	JMP          zi8t64mac

zi8t64st:
	VCVTDQ2PS     Z0, Z0
	VCVTDQ2PS     Z1, Z1
	VCVTDQ2PS     Z2, Z2
	VCVTDQ2PS     Z3, Z3
	VMULPS        Z15, Z0, Z0
	VMULPS        Z15, Z1, Z1
	VMULPS        Z15, Z2, Z2
	VMULPS        Z15, Z3, Z3
	VMOVUPS       Y0, (DI)
	VMOVUPS       Y1, 32(DI)
	VEXTRACTF64X4 $1, Z0, 64(DI)
	VEXTRACTF64X4 $1, Z1, 96(DI)
	VMOVUPS       Y2, 128(DI)
	VMOVUPS       Y3, 160(DI)
	VEXTRACTF64X4 $1, Z2, 192(DI)
	VEXTRACTF64X4 $1, Z3, 224(DI)
	ADDQ          $256, DI
	ADDQ          $64, DX
	SUBQ          $64, R8
	JMP           zi8t64

zi8done:
	VZEROUPPER
	RET
