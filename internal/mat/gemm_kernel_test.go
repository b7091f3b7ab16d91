package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// kernelNames labels the micro-kernels in subtest and benchmark names.
var kernelNames = [...]string{kernelScalar: "scalar", kernelSSE2: "sse2", kernelAVX: "avx"}

// forEachKernel runs f once per micro-kernel as a subtest, with microTile
// dispatching to that kernel. A kernel this machine cannot run is skipped
// with the reason logged.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for k := kernelScalar; k <= kernelAVX; k++ {
		t.Run(kernelNames[k], func(t *testing.T) {
			if reason := kernelUnavailable(k); reason != "" {
				t.Skip(reason)
			}
			defer useKernel(k)()
			f(t)
		})
	}
}

// kernelUnavailable says why this machine cannot run k, or "" if it can.
// Each kernel runs wherever a later one does, so k runs iff k ≤ bestKernel.
func kernelUnavailable(k microKernel) string {
	switch {
	case k <= bestKernel():
		return ""
	case runtime.GOARCH != "amd64":
		return fmt.Sprintf("%s kernel needs amd64, GOARCH is %s", kernelNames[k], runtime.GOARCH)
	default:
		return "avx kernel: CPUID reports no AVX, or the OS does not enable the YMM state in XCR0"
	}
}

// useKernel points microTile at k and returns the function that restores
// the previous choice. Callers must not overlap with running products.
func useKernel(k microKernel) (restore func()) {
	prev := tileKernel
	tileKernel = k
	return func() { tileKernel = prev }
}

// kernelOperands are the value mixes the kernel equivalence test packs
// into a, b and the incoming accumulator.
var kernelOperands = []struct {
	name    string
	a, b, c func(rng *rand.Rand) float64
}{
	{"normal", normal(1), normal(1), normal(1)},
	{"signed_zeros", zeroish, zeroish, zeroish},
	{"subnormal", subnormal, normal(1), subnormal},
	{"mixed_1e300", mixedMagnitude, mixedMagnitude, normal(1e300)},
	{"cancelling", cancelling, normal(1), normal(1e16)},
}

func normal(scale float64) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 { return scale * rng.NormFloat64() }
}

// zeroish is ±0 half the time, so sums start from, add and end on −0.
func zeroish(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	}
	return rng.NormFloat64()
}

// subnormal is a small multiple of the smallest denormal, or a value near
// the normal/subnormal boundary, so products underflow and sums round.
func subnormal(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return float64(rng.Intn(2001)-1000) * math.SmallestNonzeroFloat64
	}
	return 0x1p-1022 * rng.NormFloat64()
}

// mixedMagnitude is ±1e300, ±1e-300 or ±1 scaled noise: products span
// overflow-free 1e300 terms next to terms that underflow to subnormals.
func mixedMagnitude(rng *rand.Rand) float64 {
	scale := [...]float64{1e300, 1e-300, 1}[rng.Intn(3)]
	return scale * rng.NormFloat64()
}

// cancelling alternates large values of both signs with small ones, so
// the result depends on the exact order of the additions.
func cancelling(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return 1e16 * float64(1-2*rng.Intn(2))
	}
	return rng.Float64()
}

// TestMicroKernelsBitIdentical runs every available micro-kernel on the
// same packed panels and requires the scalar kernel's result bit for bit:
// kc from the empty product through the tablev (20), dist (50), served
// (64) and blocked (256) depths, a non-zero incoming accumulator, signed
// zeros, subnormals and mixed 1e±300 magnitudes.
func TestMicroKernelsBitIdentical(t *testing.T) {
	type tileCase struct {
		name      string
		kc        int
		ap, bp    []float64
		acc, want [gemmMR * gemmNR]float64
	}
	var cases []tileCase
	rng := rand.New(rand.NewSource(15))
	for _, kc := range []int{0, 1, 2, 3, 20, 50, 64, 256} {
		for _, op := range kernelOperands {
			// Panels keep one k-step even at kc = 0: microTile takes the
			// address of their first element.
			tc := tileCase{
				name: fmt.Sprintf("kc=%d %s", kc, op.name),
				kc:   kc,
				ap:   make([]float64, 4*max(kc, 1)),
				bp:   make([]float64, 4*max(kc, 1)),
			}
			for i := range tc.ap {
				tc.ap[i], tc.bp[i] = op.a(rng), op.b(rng)
			}
			for i := range tc.acc {
				tc.acc[i] = op.c(rng)
			}
			tc.want = tc.acc
			microScalar4x4(kc, tc.ap, tc.bp, &tc.want)
			cases = append(cases, tc)
		}
	}
	forEachKernel(t, func(t *testing.T) {
		for _, tc := range cases {
			got := tc.acc
			microTile(tc.kc, tc.ap, tc.bp, &got)
			for i, w := range tc.want {
				if math.Float64bits(got[i]) != math.Float64bits(w) {
					t.Fatalf("%s: acc[%d] = %v (%#x), scalar kernel %v (%#x)",
						tc.name, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
				}
			}
		}
	})
}
