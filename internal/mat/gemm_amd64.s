// Packed micro-kernels for the 4×4 tile products: SSE2, which is part of
// the amd64 baseline, and AVX, which microTile picks when cpuidAVX reports
// it at package init. Each kernel adds the 4×4 tile C = Ap·Bp of packed
// panels (A interleaved 4 values per k, B interleaved 4 values per k) to
// the incoming acc, each accumulator continuing its chain with the k-terms
// in ascending order — exactly the order of the scalar fallback kernel, so
// all three produce bit-identical results.

#include "textflag.h"

// func micro4x4sse(kc int, ap, bp, acc *float64)
TEXT ·micro4x4sse(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	// Accumulators: X0..X7 hold the 4×4 tile, two columns per register:
	// X(2r) = C[r][0:2], X(2r+1) = C[r][2:4]. They start from acc.
	MOVUPD (DX), X0
	MOVUPD 16(DX), X1
	MOVUPD 32(DX), X2
	MOVUPD 48(DX), X3
	MOVUPD 64(DX), X4
	MOVUPD 80(DX), X5
	MOVUPD 96(DX), X6
	MOVUPD 112(DX), X7

	TESTQ CX, CX
	JZ    done

loop:
	MOVUPD (DI), X8    // b0 b1
	MOVUPD 16(DI), X9  // b2 b3

	MOVUPD (SI), X10   // a0 a1
	MOVAPD X10, X12
	UNPCKLPD X10, X10  // a0 a0
	UNPCKHPD X12, X12  // a1 a1
	MOVAPD X10, X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X0
	ADDPD  X11, X1
	MOVAPD X12, X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X2
	ADDPD  X13, X3

	MOVUPD 16(SI), X10 // a2 a3
	MOVAPD X10, X12
	UNPCKLPD X10, X10  // a2 a2
	UNPCKHPD X12, X12  // a3 a3
	MOVAPD X10, X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X4
	ADDPD  X11, X5
	MOVAPD X12, X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X6
	ADDPD  X13, X7

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

done:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X4, 64(DX)
	MOVUPD X5, 80(DX)
	MOVUPD X6, 96(DX)
	MOVUPD X7, 112(DX)
	RET

// func micro4x4avx(kc int, ap, bp, acc *float64)
//
// The AVX kernel holds one tile row per YMM register and, per k, multiplies
// the broadcast a_r by the four b values and then adds the products — a
// separate VMULPD and VADDPD, never a fused multiply-add, so every lane
// rounds exactly as the SSE2 kernel's MULPD/ADDPD pair and the scalar
// kernel's c += a*b do.
TEXT ·micro4x4avx(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	// Accumulators: Y(r) = C[r][0:4], starting from acc.
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3

	TESTQ CX, CX
	JZ    avxdone

avxloop:
	VMOVUPD      (DI), Y4     // b0 b1 b2 b3
	VBROADCASTSD (SI), Y5     // a0 a0 a0 a0
	VBROADCASTSD 8(SI), Y6    // a1 ...
	VBROADCASTSD 16(SI), Y7   // a2 ...
	VBROADCASTSD 24(SI), Y8   // a3 ...
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  avxloop

avxdone:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func cpuidAVX() bool
//
// cpuidAVX reports whether the CPU implements AVX (CPUID.1:ECX bit 28) and
// the OS saves the YMM state: OSXSAVE (CPUID.1:ECX bit 27) is set and XCR0
// enables both the SSE (bit 1) and AVX (bit 2) state components.
TEXT ·cpuidAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
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
