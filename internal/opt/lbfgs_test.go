package opt

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func TestLBFGSQuadratic(t *testing.T) {
	// f(x) = 0.5 xᵀ D x − bᵀx with diagonal D.
	d := []float64{1, 4, 9, 16}
	b := []float64{1, 1, 1, 1}
	f := func(x, g []float64) float64 {
		var v float64
		for i := range x {
			g[i] = d[i]*x[i] - b[i]
			v += 0.5*d[i]*x[i]*x[i] - b[i]*x[i]
		}
		return v
	}
	x := make([]float64, 4)
	res := Minimize(f, x, LBFGSOptions{GradTol: 1e-10})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := range x {
		want := b[i] / d[i]
		if math.Abs(x[i]-want) > 1e-6 {
			t.Fatalf("x[%d] = %g want %g", i, x[i], want)
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	f := func(x, g []float64) float64 {
		a, b := x[0], x[1]
		g[0] = -400*a*(b-a*a) - 2*(1-a)
		g[1] = 200 * (b - a*a)
		return 100*(b-a*a)*(b-a*a) + (1-a)*(1-a)
	}
	x := []float64{-1.2, 1}
	res := Minimize(f, x, LBFGSOptions{MaxIter: 500, GradTol: 1e-8, FTol: 1e-16})
	if math.Abs(x[0]-1) > 1e-4 || math.Abs(x[1]-1) > 1e-4 {
		t.Fatalf("Rosenbrock minimum not found: %v (res %+v)", x, res)
	}
}

func TestLBFGSLogSumExp(t *testing.T) {
	// Smooth convex: f(x) = log(Σ exp(x_i)) + 0.5‖x‖²; unique minimum.
	f := func(x, g []float64) float64 {
		m := x[0]
		for _, v := range x {
			if v > m {
				m = v
			}
		}
		var s float64
		for _, v := range x {
			s += math.Exp(v - m)
		}
		lse := m + math.Log(s)
		var q float64
		for i, v := range x {
			g[i] = math.Exp(v-m)/s + v
			q += v * v
		}
		return lse + 0.5*q
	}
	x := []float64{3, -2, 0.5}
	res := Minimize(f, x, LBFGSOptions{})
	g := make([]float64, 3)
	f(x, g)
	if mat.Nrm2(g) > 1e-5 {
		t.Fatalf("gradient not small: %v (res %+v)", g, res)
	}
}

func TestBisect(t *testing.T) {
	// Root of x² − 2 on [0, 2].
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Fatalf("root %g", root)
	}
	// Decreasing function.
	root2, err := Bisect(func(x float64) float64 { return 1 - x }, 0, 5, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root2-1) > 1e-10 {
		t.Fatalf("root %g", root2)
	}
	// No bracket.
	if _, err := Bisect(func(x float64) float64 { return 1 + x*x }, -1, 1, 1e-12, 0); err == nil {
		t.Fatal("expected ErrNoBracket")
	}
	// Exact endpoint roots.
	if r, _ := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-12, 0); r != 0 {
		t.Fatalf("endpoint root %g", r)
	}
}

// TestBisectFTRLShape exercises the actual ν_t equation from the ROUND
// step: Σ_j (ν + ηλ_j)⁻² = 1 with firal's solveNu bracket.
func TestBisectFTRLShape(t *testing.T) {
	lambda := []float64{0, 0.3, 1.1, 2.2, 5.0}
	eta := 1.7
	ed := float64(len(lambda))
	f := func(nu float64) float64 {
		var s float64
		for _, l := range lambda {
			d := nu + eta*l
			s += 1 / (d * d)
		}
		return s - 1
	}
	lmin := lambda[0]
	lo := -eta*lmin + 1/math.Sqrt(ed)
	hi := -eta*lmin + math.Sqrt(ed)
	nu, err := Bisect(f, lo, hi, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f(nu)) > 1e-8 {
		t.Fatalf("ν residual %g", f(nu))
	}
}
