package main

import (
	"sync"
	"time"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rnd"
)

// Kernel probes time one public call of a layer at a workload's shape.
// This machine has no hardware counters, so every flop and byte count
// below is computed from the shape, not measured.

// timeMedian runs fn until it has run at least minReps times and for at
// least minDur in total (at most 1000 times) and returns the median
// duration of one call in seconds.
func timeMedian(minReps int, minDur time.Duration, fn func()) float64 {
	var ds []float64
	var total time.Duration
	for len(ds) < 1000 && (len(ds) < minReps || total < minDur) {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		total += d
		ds = append(ds, d.Seconds())
	}
	return median(ds)
}

func randomDense(rng *rnd.Source, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	rng.Normal(m.Data, 0, 1)
	return m
}

// gemmGflops times the blocked mat.Mul at d = 256, the compute reference
// the perfmodel predictions are scaled by. Flops: 2·d³ (computed).
func gemmGflops() float64 {
	const d = 256
	rng := rnd.New(1)
	a, b := randomDense(rng, d, d), randomDense(rng, d, d)
	dst := mat.NewDense(d, d)
	sec := timeMedian(5, 300*time.Millisecond, func() { mat.Mul(dst, a, b) })
	return 2 * d * d * d / sec / 1e9
}

// mulTransAThinGflops times mat.MulTransA(dt, g, xb) as the Lemma-2
// matvec issues it for one row block: g is m×c (c Fisher blocks, the
// thin side) and xb is m×d. Flops: 2·m·c·d (computed).
func mulTransAThinGflops(m, c, d int) float64 {
	rng := rnd.New(2)
	g, xb := randomDense(rng, m, c), randomDense(rng, m, d)
	dst := mat.NewDense(c, d)
	sec := timeMedian(5, 200*time.Millisecond, func() { mat.MulTransA(dst, g, xb) })
	return 2 * float64(m) * float64(c) * float64(d) / sec / 1e9
}

// blockProbe times one hessian.MatVecBlockWS and one
// hessian.QuadAccumBlockWS over pool with s probe vectors. The matvec's
// flops are taken as 4·n·c·d·s (the two thin products of Lemma 2 per
// probe, computed). reps sets how many calls the medians are taken over;
// a streamed pool decodes the whole pool on every call, so it uses one.
func blockProbe(pool hessian.Pool, s, reps int) (matvecSec, matvecGflops, quadSec float64) {
	n, ed := pool.N(), pool.Ed()
	rng := rnd.New(3)
	v, u := randomDense(rng, s, ed), randomDense(rng, s, ed)
	dst := mat.NewDense(s, ed)
	w := make([]float64, n)
	mat.Fill(w, 1/float64(n))
	g := make([]float64, n)
	ws := mat.NewWorkspace()
	matvecSec = timeMedian(reps, 0, func() { hessian.MatVecBlockWS(ws, pool, dst, v, w) })
	quadSec = timeMedian(reps, 0, func() { hessian.QuadAccumBlockWS(ws, pool, g, u, v, -1/float64(s)) })
	flops := 4 * float64(n) * float64(pool.C()) * float64(pool.D()) * float64(s)
	return matvecSec, flops / matvecSec / 1e9, quadSec
}

// allreduceSeconds times one Comm.Allreduce of words float64s issued by
// every rank at once; the time of one call is the slowest rank's.
func allreduceSeconds(comms []*mpi.Comm, words, reps int) float64 {
	bufs := make([][]float64, len(comms))
	for r := range bufs {
		bufs[r] = make([]float64, words)
	}
	return timeMedian(reps, 0, func() {
		var wg sync.WaitGroup
		for r, c := range comms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Allreduce(bufs[r], mpi.Sum)
			}()
		}
		wg.Wait()
	})
}

// shape is what the perfmodel predictions depend on. c counts Fisher
// blocks (classes − 1), as the solvers do.
type shape struct{ n, d, c, s, p, b int }

// prediction is perfmodel's time for one round's RELAX and ROUND and for
// the communication inside both.
type prediction struct{ relax, round, comm float64 }

// predict evaluates perfmodel at sh for a RELAX of iters mirror-descent
// iterations and cgIters CG column iterations in total (block CG advances
// s columns per iteration, so cgIters/s block iterations).
func predict(m perfmodel.Machine, sh shape, iters, cgIters int) prediction {
	q := perfmodel.RelaxParams{N: sh.n, D: sh.d, C: sh.c, S: sh.s, NCG: 1, P: sh.p}
	pre, cg1, grad, _ := m.RelaxIter(q)
	blockIters := float64(cgIters) / float64(sh.s)
	it := float64(iters)
	relaxComm := it*(m.PrecondComm(q)+m.GradientComm(q)) + blockIters*m.CGComm(q)
	rq := perfmodel.RoundParams{N: sh.n, D: sh.d, C: sh.c, P: sh.p}
	roundComm := float64(sh.b) * m.RoundComm(rq)
	return prediction{
		relax: it*(pre+grad) + blockIters*cg1 + relaxComm,
		round: float64(sh.b)*(m.ObjectiveComp(rq)+m.EigComp(rq)+m.RoundOtherComp(rq)) + roundComm,
		comm:  relaxComm + roundComm,
	}
}
