// SSE2 micro-kernel for the packed products. SSE2 is part of the amd64
// baseline, so no CPU-feature detection is needed. The kernel adds the
// 4×4 tile C = Ap·Bp of packed panels (A interleaved 4 values per k, B
// interleaved 4 values per k) to the incoming acc, each accumulator
// continuing its chain with the k-terms in ascending order — exactly the
// order of the scalar fallback kernel, so both produce bit-identical
// results.

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
