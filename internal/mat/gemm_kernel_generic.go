//go:build !amd64

package mat

// bestKernel is the scalar micro-kernel off amd64.
func bestKernel() microKernel { return kernelScalar }

func micro4x4sse(kc int, ap, bp, acc *float64) {
	panic("mat: asm micro-kernel unavailable on this architecture")
}

func micro4x4avx(kc int, ap, bp, acc *float64) {
	panic("mat: asm micro-kernel unavailable on this architecture")
}
