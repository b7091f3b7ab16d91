package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20} {
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		a.AddDiag(float64(n)) // keep well-conditioned
		lu, err := NewLU(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := lu.SolveVec(nil, b)
		ax := MatVec(nil, a, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				t.Fatalf("n=%d: residual %g", n, ax[i]-b[i])
			}
		}
	}
}

func TestLUSolveMatrixAndNonsymmetric(t *testing.T) {
	// LU must handle non-symmetric systems (the exact ROUND's I + ηSG).
	a := FromRows([][]float64{
		{0, 2, 1}, // zero pivot forces a row swap
		{1, 0, 3},
		{2, 1, 0},
	})
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	x := lu.Solve(nil, b)
	ax := Mul(nil, a, x)
	if d := MaxAbsDiff(ax, b); d > 1e-10 {
		t.Fatalf("AX != B (%g)", d)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

// TestLUAgainstCholesky: on SPD inputs both factorizations must give the
// same solutions.
func TestLUAgainstCholesky(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := NewLU(a)
		if err != nil {
			return true
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return true
		}
		x1 := lu.SolveVec(nil, b)
		x2 := ch.SolveVec(nil, b)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7*(1+math.Abs(x2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
