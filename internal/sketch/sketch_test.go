package sketch

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rnd"
)

// probeTrace draws s Rademacher probes of length n as the rows of vt and
// returns TraceFromProbesT for the symmetric matrix a (so row j of vt·a is
// A·v_j).
func probeTrace(a *mat.Dense, s int, rng *rnd.Source) float64 {
	vt := mat.NewDense(s, a.Rows)
	rng.Rademacher(vt.Data)
	return TraceFromProbesT(vt, mat.Mul(nil, vt, a))
}

func TestHutchinsonUnbiasedOnDiagonal(t *testing.T) {
	// For diagonal A, vᵀAv = Σ a_ii v_i² = Trace(A) exactly for Rademacher
	// probes, so even one probe is exact.
	n := 10
	a := mat.NewDense(n, n)
	var trace float64
	for i := 0; i < n; i++ {
		a.Set(i, i, float64(i+1))
		trace += float64(i + 1)
	}
	if got := probeTrace(a, 1, rnd.New(2)); math.Abs(got-trace) > 1e-10 {
		t.Fatalf("diagonal trace %g want %g", got, trace)
	}
}

func TestHutchinsonConvergesOnDense(t *testing.T) {
	rng := rnd.New(3)
	n := 30
	x := mat.NewDense(n+2, n)
	rng.Normal(x.Data, 0, 1)
	a := mat.MulTransA(nil, x, x)
	trace := a.Trace()
	if est := probeTrace(a, 4000, rnd.New(4)); math.Abs(est-trace) > 0.1*math.Abs(trace) {
		t.Fatalf("Hutchinson estimate %g too far from %g", est, trace)
	}
}

func TestTraceFromProbes(t *testing.T) {
	n, s := 12, 64
	a := mat.Eye(n)
	a.Scale(3)
	if got := probeTrace(a, s, rnd.New(5)); math.Abs(got-3*float64(n)) > 1e-9 {
		t.Fatalf("TraceFromProbesT %g want %g", got, 3*float64(n))
	}
}
