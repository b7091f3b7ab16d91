package mat

// bestKernel picks the fastest micro-kernel of gemm_amd64.s this CPU runs:
// AVX when the CPU has it and the OS saves the YMM state, else SSE2, which
// is in the amd64 baseline.
func bestKernel() microKernel {
	if cpuidAVX() {
		return kernelAVX
	}
	return kernelSSE2
}

// micro4x4sse and micro4x4avx add the 4×4 tile product of packed panels
// ap and bp over kc steps to acc (row-major [16]float64), continuing each
// element's sum from its incoming value.
//
//go:noescape
func micro4x4sse(kc int, ap, bp, acc *float64)

//go:noescape
func micro4x4avx(kc int, ap, bp, acc *float64)

// cpuidAVX reports whether AVX instructions can run: CPUID advertises AVX
// and OSXSAVE, and XCR0 enables the SSE and AVX register state.
func cpuidAVX() bool
