//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of the Go loops in elem.go. Every lane performs the Go
// expression's operations in the Go expression's order — VSUBPS,
// VMULPS, VADDPS, never FMA — and a select is VCMPPS then VANDPS, so
// the value not selected is +0 exactly as the Go branch stores it.
// Each routine takes n > 0 with n%8 == 0 (elem_amd64.go hands the
// ≤ 7-element tail to the Go loop), walks one byte index AX up to 4·n,
// and touches nothing outside [0, n). VZEROUPPER precedes every RET.

// VCMPPS predicates: ordered, quiet greater-than (false on NaN) for
// the `v > 0` rule, and unordered, quiet not-less-or-equal (true on
// NaN) for keeping what the `v <= 0` rule does not zero.
#define GT_OQ $0x1e
#define NLE_UQ $0x16

// func reluIntoAVX2(dst, src *float32, n int)
//
// dst[i] = src[i] > 0 ? src[i] : +0.
TEXT ·reluIntoAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	SHLQ   $2, CX
	XORQ   AX, AX
	VXORPS Y15, Y15, Y15

reluinto8:
	VMOVUPS (SI)(AX*1), Y0
	VCMPPS  GT_OQ, Y15, Y0, Y1
	VANDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     reluinto8
	VZEROUPPER
	RET

// func reluClampAVX2(x *float32, n int)
//
// x[i] <= 0 becomes +0 in place; NaN is kept.
TEXT ·reluClampAVX2(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	SHLQ   $2, CX
	XORQ   AX, AX
	VXORPS Y15, Y15, Y15

reluclamp8:
	VMOVUPS (DI)(AX*1), Y0
	VCMPPS  NLE_UQ, Y15, Y0, Y1
	VANDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     reluclamp8
	VZEROUPPER
	RET

// func reluGradIntoAVX2(dst, y, dy *float32, n int)
//
// dst[i] = y[i] > 0 ? dy[i] : +0.
TEXT ·reluGradIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   y+8(FP), SI
	MOVQ   dy+16(FP), DX
	MOVQ   n+24(FP), CX
	SHLQ   $2, CX
	XORQ   AX, AX
	VXORPS Y15, Y15, Y15

relugrad8:
	VMOVUPS (SI)(AX*1), Y0
	VCMPPS  GT_OQ, Y15, Y0, Y1
	VANDPS  (DX)(AX*1), Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relugrad8
	VZEROUPPER
	RET

// func addReLUIntoAVX2(dst, a, b *float32, n int)
//
// v = a[i] + b[i]; dst[i] = v > 0 ? v : +0.
TEXT ·addReLUIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	MOVQ   n+24(FP), CX
	SHLQ   $2, CX
	XORQ   AX, AX
	VXORPS Y15, Y15, Y15

addreluinto8:
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (DX)(AX*1), Y0, Y0
	VCMPPS  GT_OQ, Y15, Y0, Y1
	VANDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     addreluinto8
	VZEROUPPER
	RET

// func addReLUClampAVX2(a, b *float32, n int)
//
// v = a[i] + b[i]; a[i] = v <= 0 ? +0 : v (NaN kept).
TEXT ·addReLUClampAVX2(SB), NOSPLIT, $0-24
	MOVQ   a+0(FP), DI
	MOVQ   b+8(FP), SI
	MOVQ   n+16(FP), CX
	SHLQ   $2, CX
	XORQ   AX, AX
	VXORPS Y15, Y15, Y15

addreluclamp8:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	VCMPPS  NLE_UQ, Y15, Y0, Y1
	VANDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     addreluclamp8
	VZEROUPPER
	RET

// func bnAffineIntoAVX2(out, xhat, x *float32, n int, mean, invStd, gamma, beta float32)
//
// xh = (x[i] − mean)·invStd; out[i] = gamma·xh + beta; xhat[i] = xh
// unless xhat is nil.
TEXT ·bnAffineIntoAVX2(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), CX
	VBROADCASTSS mean+32(FP), Y12
	VBROADCASTSS invStd+36(FP), Y13
	VBROADCASTSS gamma+40(FP), Y14
	VBROADCASTSS beta+44(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX
	TESTQ        R8, R8
	JZ           bnaffine8

bnaffinehat8:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS  Y12, Y0, Y0
	VMULPS  Y13, Y0, Y0
	VMOVUPS Y0, (R8)(AX*1)
	VMULPS  Y0, Y14, Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     bnaffinehat8
	VZEROUPPER
	RET

bnaffine8:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS  Y12, Y0, Y0
	VMULPS  Y13, Y0, Y0
	VMULPS  Y0, Y14, Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     bnaffine8
	VZEROUPPER
	RET

// func bnGradIntoAVX2(dx, dy, xhat *float32, n int, k, cnt, mom, sumDY, sumDYX float32)
//
// dx[i] = k·(cnt·dy[i] − mom·(sumDY + xhat[i]·sumDYX)).
TEXT ·bnGradIntoAVX2(SB), NOSPLIT, $0-52
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS k+32(FP), Y11
	VBROADCASTSS cnt+36(FP), Y12
	VBROADCASTSS mom+40(FP), Y13
	VBROADCASTSS sumDY+44(FP), Y14
	VBROADCASTSS sumDYX+48(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

bngrad8:
	VMULPS  (DX)(AX*1), Y15, Y0
	VADDPS  Y0, Y14, Y0
	VMULPS  Y0, Y13, Y0
	VMULPS  (SI)(AX*1), Y12, Y1
	VSUBPS  Y0, Y1, Y1
	VMULPS  Y1, Y11, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     bngrad8
	VZEROUPPER
	RET
