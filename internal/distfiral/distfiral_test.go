package distfiral

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/rnd"
	"repro/internal/softmax"
)

// testSets builds a labeled set and a pool with class structure (reduced
// probabilities, as the FIRAL solvers require).
func testSets(seed int64, nLabeled, nPool, d, c int) (*hessian.Set, *hessian.Set) {
	rng := rnd.New(seed)
	means := mat.NewDense(c, d)
	for k := 0; k < c; k++ {
		rng.UnitVector(means.Row(k))
		mat.Scal(2, means.Row(k))
	}
	sample := func(n int) *mat.Dense {
		x := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			k := i % c
			rng.Normal(x.Row(i), 0, 0.4)
			mat.Axpy(1, means.Row(k), x.Row(i))
		}
		return x
	}
	theta := means.T()
	xo, xu := sample(nLabeled), sample(nPool)
	ho := hessian.ReduceProbs(softmax.Probabilities(nil, xo, theta))
	hu := hessian.ReduceProbs(softmax.Probabilities(nil, xu, theta))
	return hessian.NewSet(xo, ho), hessian.NewSet(xu, hu)
}

// tolerance is the relative distributed-vs-serial tolerance at p ranks:
// zero at one rank, summation-order noise otherwise.
func tolerance(p int) float64 {
	if p == 1 {
		return 0
	}
	return 1e-6
}

func TestMakeShardCoversPool(t *testing.T) {
	labeled, pool := testSets(1, 6, 23, 3, 3)
	for _, p := range []int{1, 2, 3, 5} {
		total := 0
		for r := 0; r < p; r++ {
			sh := MakeShard(labeled, pool, p, r)
			total += sh.PoolLocal.N()
			if sh.PoolTotal != 23 {
				t.Fatalf("PoolTotal %d", sh.PoolTotal)
			}
		}
		if total != 23 {
			t.Fatalf("p=%d: shards cover %d points", p, total)
		}
	}
}

// TestDistributedRelaxMatchesSerial: with identical seeds and fixed
// iteration counts, the distributed RELAX must reproduce the serial z⋄ up
// to floating-point summation-order noise, for every paper-relevant rank
// count — and exactly at one rank, where the two run the same arithmetic.
func TestDistributedRelaxMatchesSerial(t *testing.T) {
	labeled, pool := testSets(2, 8, 36, 3, 3)
	b := 5
	opts := firal.RelaxOptions{FixedIterations: 8, Seed: 11, Probes: 8, CGTol: 0.01}

	serial, err := firal.RelaxFast(context.Background(), firal.NewProblem(labeled, pool), b, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{1, 2, 3, 4} {
		tol := tolerance(p)
		zGlobal := make([]float64, pool.N())
		var mu sync.Mutex
		mpi.Run(p, func(c *mpi.Comm) {
			sh := MakeShard(labeled, pool, p, c.Rank())
			res, err := Relax(context.Background(), c, sh, b, opts)
			if err != nil {
				t.Errorf("p=%d: %v", p, err)
				return
			}
			mu.Lock()
			copy(zGlobal[sh.PoolOffset:sh.PoolOffset+sh.PoolLocal.N()], res.ZLocal)
			mu.Unlock()
		})
		for i := range zGlobal {
			if math.Abs(zGlobal[i]-serial.Z[i]) > tol*(1+math.Abs(serial.Z[i])) {
				t.Fatalf("p=%d: z[%d] = %g serial %g", p, i, zGlobal[i], serial.Z[i])
			}
		}
	}
}

// TestDistributedRoundMatchesSerial feeds the same z⋄ to the serial and
// distributed ROUND and demands identical selections, and ν and
// min-eigenvalue results equal up to summation-order noise (exactly
// equal at one rank).
func TestDistributedRoundMatchesSerial(t *testing.T) {
	labeled, pool := testSets(3, 8, 30, 3, 3)
	b := 6
	prob := firal.NewProblem(labeled, pool)
	z := make([]float64, pool.N())
	rng := rnd.New(7)
	var sum float64
	for i := range z {
		z[i] = rng.Float64()
		sum += z[i]
	}
	mat.Scal(float64(b)/sum, z)

	serial, err := firal.RoundFast(prob, z, b, firal.RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{1, 2, 3, 4} {
		tol := tolerance(p)
		var selected []int
		var nus []float64
		var minEig float64
		var once sync.Once
		mpi.Run(p, func(c *mpi.Comm) {
			sh := MakeShard(labeled, pool, p, c.Rank())
			zLocal := append([]float64(nil), z[sh.PoolOffset:sh.PoolOffset+sh.PoolLocal.N()]...)
			res, err := Round(context.Background(), c, sh, zLocal, b, 0)
			if err != nil {
				t.Errorf("p=%d: %v", p, err)
				return
			}
			once.Do(func() {
				selected = res.Selected
				nus = res.Nu
				minEig = res.MinEigH
			})
		})
		if len(selected) != len(serial.Selected) {
			t.Fatalf("p=%d: %d selections vs %d", p, len(selected), len(serial.Selected))
		}
		for i := range selected {
			if selected[i] != serial.Selected[i] {
				t.Fatalf("p=%d: selection %d: %d vs serial %d (%v vs %v)",
					p, i, selected[i], serial.Selected[i], selected, serial.Selected)
			}
		}
		for i := range nus {
			if math.Abs(nus[i]-serial.Nu[i]) > tol*(1+math.Abs(serial.Nu[i])) {
				t.Fatalf("p=%d: ν[%d] = %g serial %g", p, i, nus[i], serial.Nu[i])
			}
		}
		if math.Abs(minEig-serial.MinEigH) > tol*(1+math.Abs(serial.MinEigH)) {
			t.Fatalf("p=%d: MinEigH %g serial %g", p, minEig, serial.MinEigH)
		}
	}
}

// TestDistributedWarmStartMatchesSerial: a warm-started distributed
// selection slices the global warm vector by each rank's window and
// matches the serial warm-started selection — z⋄ and the ROUND
// objectives up to summation-order noise, exactly at one rank.
func TestDistributedWarmStartMatchesSerial(t *testing.T) {
	labeled, pool := testSets(8, 8, 41, 3, 3)
	const b = 4
	warm := make([]float64, pool.N())
	rng := rnd.New(5)
	for i := range warm {
		warm[i] = rng.Float64()
	}
	opts := firal.RelaxOptions{FixedIterations: 4, Seed: 3, Probes: 5, CGTol: 0.01, WarmStart: warm}
	serial, err := firal.SelectApprox(context.Background(), firal.NewProblem(labeled, pool), b, firal.Options{Relax: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3} {
		tol := tolerance(p)
		z := make([]float64, pool.N())
		var objectives []float64
		var mu sync.Mutex
		mpi.Run(p, func(c *mpi.Comm) {
			sh := MakeShard(labeled, pool, p, c.Rank())
			_, relax, round, err := Select(context.Background(), c, sh, b, 0, opts)
			if err != nil {
				t.Errorf("p=%d: %v", p, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			copy(z[sh.PoolOffset:], relax.ZLocal)
			objectives = round.Objectives
		})
		for i := range z {
			if math.Abs(z[i]-serial.Relax.Z[i]) > tol*(1+math.Abs(serial.Relax.Z[i])) {
				t.Fatalf("p=%d: z[%d] = %g serial %g", p, i, z[i], serial.Relax.Z[i])
			}
		}
		if len(objectives) != len(serial.Round.Objectives) {
			t.Fatalf("p=%d: %d ROUND objectives, serial %d", p, len(objectives), len(serial.Round.Objectives))
		}
		for i, v := range objectives {
			if want := serial.Round.Objectives[i]; math.Abs(v-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("p=%d: objective %d = %g serial %g", p, i, v, want)
			}
		}
	}
}

// TestAllRanksAgreeOnSelection: the Selected slice must be identical on
// every rank (it is assembled from collectives only).
func TestAllRanksAgreeOnSelection(t *testing.T) {
	labeled, pool := testSets(4, 6, 24, 2, 3)
	b := 4
	p := 3
	results := make([][]int, p)
	mpi.Run(p, func(c *mpi.Comm) {
		sh := MakeShard(labeled, pool, p, c.Rank())
		sel, _, _, err := Select(context.Background(), c, sh, b, 0, firal.RelaxOptions{FixedIterations: 5, Seed: 3})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		results[c.Rank()] = sel
	})
	for r := 1; r < p; r++ {
		if len(results[r]) != len(results[0]) {
			t.Fatalf("rank %d selection length differs", r)
		}
		for i := range results[r] {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d disagrees: %v vs %v", r, results[r], results[0])
			}
		}
	}
}

// TestBudgetExceedsPool: with b > n the distributed round must select every
// pool point exactly once and stop.
func TestBudgetExceedsPool(t *testing.T) {
	labeled, pool := testSets(5, 6, 5, 2, 3)
	p := 2
	mpi.Run(p, func(c *mpi.Comm) {
		sh := MakeShard(labeled, pool, p, c.Rank())
		z := make([]float64, sh.PoolLocal.N())
		mat.Fill(z, 1)
		res, err := Round(context.Background(), c, sh, z, 9, 0)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if len(res.Selected) != 5 {
			t.Errorf("selected %d of 5 pool points", len(res.Selected))
		}
		seen := map[int]bool{}
		for _, i := range res.Selected {
			if seen[i] {
				t.Errorf("duplicate global index %d", i)
			}
			seen[i] = true
		}
	})
}

// TestCommStatsNonzero sanity-checks that the distributed path actually
// communicates (guards against accidentally serial fallbacks).
func TestCommStatsNonzero(t *testing.T) {
	labeled, pool := testSets(6, 6, 20, 2, 3)
	stats := mpi.Run(3, func(c *mpi.Comm) {
		sh := MakeShard(labeled, pool, 3, c.Rank())
		if _, _, _, err := Select(context.Background(), c, sh, 3, 0, firal.RelaxOptions{FixedIterations: 3, Seed: 1}); err != nil {
			t.Errorf("%v", err)
		}
	})
	for r, s := range stats {
		if s.SentBytes == 0 {
			t.Fatalf("rank %d sent no data", r)
		}
	}
}
