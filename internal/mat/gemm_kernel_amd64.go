package mat

// useAsmKernel selects the SSE2 micro-kernel (gemm_amd64.s). SSE2 is in
// the amd64 baseline, so no runtime feature detection is required.
const useAsmKernel = true

// micro4x4sse adds the 4×4 tile product of packed panels ap and bp over
// kc steps to acc (row-major [16]float64), continuing each element's sum
// from its incoming value.
//
//go:noescape
func micro4x4sse(kc int, ap, bp, acc *float64)
