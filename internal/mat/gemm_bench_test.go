package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// GEMM benchmarks: the blocked kernels against the unblocked reference at
// the dimensions the ROADMAP targets (d ≥ 256 feature blocks). Run with
//
//	go test -bench 'Gemm|MatVec' -benchmem ./internal/mat
func benchDims(d int) (*Dense, *Dense) {
	rng := rand.New(rand.NewSource(42))
	return randDense(rng, d, d), randDense(rng, d, d)
}

func benchmarkGemm(b *testing.B, d int, f func(dst, x, y *Dense) *Dense) {
	x, y := benchDims(d)
	dst := NewDense(d, d)
	b.SetBytes(int64(8 * d * d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, x, y)
	}
}

func BenchmarkGemmBlocked(b *testing.B) {
	for _, d := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) { benchmarkGemm(b, d, Mul) })
	}
}

func BenchmarkGemmNaive(b *testing.B) {
	for _, d := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) { benchmarkGemm(b, d, RefMul) })
	}
}

func BenchmarkGemmTransABlocked(b *testing.B) {
	benchmarkGemm(b, 256, MulTransA)
}

func BenchmarkGemmTransANaive(b *testing.B) {
	benchmarkGemm(b, 256, RefMulTransA)
}

func BenchmarkMatVec(b *testing.B) {
	a, _ := benchDims(512)
	x := make([]float64, 512)
	dst := make([]float64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, a, x)
	}
}

func BenchmarkWeightedGram(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randDense(rng, 2000, 64)
	w := make([]float64, 2000)
	for i := range w {
		w[i] = rng.Float64()
	}
	dst := NewDense(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedGram(dst, x, w)
	}
}

// BenchmarkMulTransAThin times thin aᵀ·b shapes below the blocked gate:
// the Lemma-2 product Γᵀ·X of one 3000-row block (c−1 = 9, d = 20), and
// softmax training's d=20, c−1=9 gradient over 10 and 40 labeled rows.
func BenchmarkMulTransAThin(b *testing.B) {
	for _, sh := range []struct{ m, r, n int }{{3000, 9, 20}, {40, 20, 9}, {10, 20, 9}} {
		b.Run(fmt.Sprintf("m%d_r%d_n%d", sh.m, sh.r, sh.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			a, x := randDense(rng, sh.m, sh.r), randDense(rng, sh.m, sh.n)
			dst := NewDense(sh.r, sh.n)
			MulTransA(dst, a, x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulTransA(dst, a, x)
			}
		})
	}
}

// BenchmarkMicroKernel times one 4×4 tile product per kernel at the packed
// depths of the tablev (d = 20), dist (d = 50) and served (d = 64)
// workloads and of a full gemmKC block (256), reporting GFLOP/s (2·16·kc
// flops per tile).
//
//	go test -run '^$' -bench MicroKernel ./internal/mat
func BenchmarkMicroKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, kc := range []int{20, 50, 64, 256} {
		ap, bp := make([]float64, 4*kc), make([]float64, 4*kc)
		for i := range ap {
			ap[i], bp[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for k := kernelScalar; k <= kernelAVX; k++ {
			b.Run(fmt.Sprintf("%s/kc%d", kernelNames[k], kc), func(b *testing.B) {
				if reason := kernelUnavailable(k); reason != "" {
					b.Skip(reason)
				}
				defer useKernel(k)()
				var acc [gemmMR * gemmNR]float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					microTile(kc, ap, bp, &acc)
				}
				b.ReportMetric(float64(2*gemmMR*gemmNR*kc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
