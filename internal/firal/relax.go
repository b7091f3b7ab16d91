package firal

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/hessian"
	"repro/internal/krylov"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/rnd"
	"repro/internal/sketch"
	"repro/internal/timing"
)

// relaxScratch pools the per-call setup of RelaxFast: the workspace, the
// hoisted probe/gradient buffers, the preconditioner factor storage, the
// Σz block cache, and the CG result and objective-history slices. For the
// paper-scale solves this setup is noise, but a session running many
// small rounds (the Table V schedules select 5–10 points per round) used
// to pay it per selection; with the pool a steady-state round reuses the
// previous round's storage whenever the shapes match. Only z and the
// RelaxResult escape and stay per-call.
//
// Only serial solves return their scratch to the pool. A distributed
// solve is paper-scale, where the setup is noise, and pooling its
// O(cd²) blocks and sweep buffers per rank keeps them alive between
// rounds, which raises the process's peak memory (see ARCHITECTURE.md
// § Performance discipline).
type relaxScratch struct {
	n, ed, s, c, d int
	ws             *mat.Workspace
	g              []float64
	v              *mat.Dense // ẽd×s probe block, Rademacher draw order
	vt, w, hpw, w2 *mat.Dense // transposed blocks (s×ẽd, row j = column j)
	sigBlocks      []*mat.Dense
	fHist          []float64
	cg             []krylov.Result
	bp             *BlockPreconditionerWS
}

var relaxScratchPool = sync.Pool{New: func() any {
	return &relaxScratch{ws: mat.NewWorkspace(), bp: NewBlockPreconditionerWS()}
}}

// getRelaxScratch draws a scratch set from the pool, resizing whichever
// buffers do not match the requested shape (a reuse with the same shape
// allocates nothing).
func getRelaxScratch(n, ed, s, c, d int) *relaxScratch {
	sc := relaxScratchPool.Get().(*relaxScratch)
	if sc.n != n {
		sc.g = make([]float64, n)
	}
	if sc.ed != ed || sc.s != s {
		sc.v = mat.NewDense(ed, s)
		sc.vt = mat.NewDense(s, ed)
		sc.w = mat.NewDense(s, ed)
		sc.hpw = mat.NewDense(s, ed)
		sc.w2 = mat.NewDense(s, ed)
	}
	if sc.c != c || sc.d != d {
		sc.sigBlocks = nil // sigmaBlocks re-allocates to the new shape
	}
	sc.n, sc.ed, sc.s, sc.c, sc.d = n, ed, s, c, d
	sc.fHist = sc.fHist[:0]
	return sc
}

// release returns a serial solve's scratch to the pool.
func (sc *relaxScratch) release(r Rank) {
	if r.Comm == nil {
		relaxScratchPool.Put(sc)
	}
}

// RelaxOptions configure the RELAX solvers (exact Algorithm 1 lines 1–9
// and fast Algorithm 2). "Fast solver" below means RelaxFast and its
// distributed form RelaxOn (distfiral.Relax), which share one loop.
type RelaxOptions struct {
	// MaxIter is the mirror-descent iteration cap T (default 100, the
	// paper's bound for its convergence criterion).
	MaxIter int
	// Beta0 scales the mirror-descent learning-rate schedule
	// β_t = Beta0 / (‖g_t‖∞ √t) (default 1).
	Beta0 float64
	// ObjTol stops when the relative change of the objective falls below
	// it (default 1e-4, § IV-A).
	ObjTol float64
	// Probes is the number of Rademacher vectors s (default 10, § IV-A).
	// Fast solver only.
	Probes int
	// CGTol is the CG relative-residual tolerance (default 0.1, § IV-A).
	// Fast solver only.
	CGTol float64
	// CGMaxIter caps CG iterations per solve (default 400). Fast solver
	// only.
	CGMaxIter int
	// Seed seeds the Rademacher probes. Fast solver only.
	Seed int64
	// RecordObjective stores the objective after every iteration,
	// enabling the Fig. 4 sensitivity curves.
	RecordObjective bool
	// FixedIterations, when positive, disables the ObjTol stop and runs
	// exactly this many mirror-descent iterations (used by the
	// performance experiments, which time a fixed iteration count).
	FixedIterations int
	// WarmStart, when non-nil, seeds mirror descent from this weight
	// vector instead of the uniform simplex — the warm-started round of an
	// incremental session, where the previous round's converged z
	// (reprojected onto the grown simplex, see ReprojectSimplex) is a far
	// better iterate than uniform. The vector must have one nonnegative
	// entry per pool point with a positive sum; it is copied and normalized
	// to sum 1, so callers may pass z⋄ (which sums to b) directly. Resume
	// takes precedence: a checkpointed trajectory restarts from its exact
	// iterate, not from the warm seed. Read by the fast solver, serial and
	// distributed (each rank slices the global vector by its pool window);
	// RelaxExact ignores it.
	WarmStart []float64
	// Resume, when non-nil, continues a previous fast solve from the
	// checkpointed state instead of starting at the uniform simplex. The
	// remaining options (Seed, Probes, tolerances, …) must match the
	// original solve for the resumed trajectory to be bit-for-bit
	// identical to an uninterrupted one. Read by the fast solver, serial
	// and distributed; checkpoints hold global weights, so a distributed
	// solve resumes under any rank count. RelaxExact ignores it.
	Resume *RelaxCheckpoint
	// OnIteration, when non-nil, is called after every completed
	// mirror-descent iteration with the current resumable state, and once
	// more with Done=true when mirror descent finishes — the hook for
	// periodic checkpointing and progress reporting. The checkpoint's
	// slices alias live solver buffers and are only valid during the
	// call; Clone to persist. The hook runs on the solver goroutine, so a
	// slow hook slows the solve. Read by the fast solver, serial and
	// distributed; a distributed checkpoint allgathers the global iterate,
	// so set the hook on all ranks or on none. RelaxExact ignores it.
	OnIteration func(*RelaxCheckpoint)
}

func (o *RelaxOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Beta0 <= 0 {
		o.Beta0 = 1
	}
	if o.ObjTol <= 0 {
		o.ObjTol = 1e-4
	}
	if o.Probes <= 0 {
		o.Probes = 10
	}
	if o.CGTol <= 0 {
		o.CGTol = 0.1
	}
	if o.CGMaxIter <= 0 {
		o.CGMaxIter = 400
	}
	if o.FixedIterations > 0 {
		o.MaxIter = o.FixedIterations
	}
}

// RelaxResult reports a RELAX solve.
type RelaxResult struct {
	// Z is the relaxed solution z⋄ = b·z (Algorithm 1 line 9 /
	// Algorithm 2 line 12); it sums to b. RelaxOn returns the rank's
	// slice of it.
	Z []float64
	// Objectives holds the per-iteration objective estimates
	// f = Trace(Σz⁻¹ Hp) when recording was requested.
	Objectives []float64
	// Iterations is the number of mirror-descent iterations executed.
	Iterations int
	// CGIterations is the total number of CG iterations across all solves
	// (fast solver; zero for exact).
	CGIterations int
	// Timings attributes wall-clock time to phases: "precond", "cg",
	// "gradient", "other" (fast, plus "comm" on a rank), or
	// "dense"/"gradient"/"other" (exact).
	Timings *timing.Phases
}

// mirrorStep applies the entropic mirror-descent update of Algorithm 1
// lines 7–8 (z_i ← z_i e^{−β g_i}, renormalized), with β_t scaled by the
// gradient's ∞-norm for a scale-free schedule. On a rank the ∞-norm and
// the simplex sum are global; every rank sees the same ∞-norm, so a zero
// gradient skips the update on all ranks together.
//
//firal:hotpath
func (r Rank) mirrorStep(z, g []float64, beta0 float64, t int, ph *timing.Phases) {
	stop := ph.Start("other")
	gmax := 0.0
	for _, v := range g {
		if a := math.Abs(v); a > gmax {
			gmax = a
		}
	}
	stop()
	if gmax = r.reduce(gmax, mpi.Max, ph); gmax == 0 {
		return
	}
	stop = ph.Start("other")
	beta := beta0 / (gmax * math.Sqrt(float64(t)))
	var sum float64
	for i := range z {
		z[i] *= math.Exp(-beta * g[i])
		sum += z[i]
	}
	stop()
	sum = r.reduce(sum, mpi.Sum, ph)
	stop = ph.Start("other")
	mat.Scal(1/sum, z)
	stop()
}

// relConv reports whether the objective change between prev and cur is
// below tol, relative to |prev|. Used by the exact solver, whose
// objective is deterministic.
func relConv(prev, cur, tol float64) bool {
	if math.IsInf(prev, 0) {
		return false
	}
	return math.Abs(prev-cur) <= tol*math.Max(1e-300, math.Abs(prev))
}

// StochasticConverged is the windowed form of the paper's stopping rule
// for the fast solver: the Hutchinson objective estimate is redrawn every
// iteration, so a pointwise relative-change test never fires through the
// estimator noise. We instead compare the means of two consecutive
// 5-iteration windows and stop when the change is below tol relative to
// the level, or below half the within-window standard deviation (the
// trajectory has plateaued to within estimator noise).
func StochasticConverged(f []float64, tol float64) bool {
	const w = 5
	if len(f) < 2*w {
		return false
	}
	mean := func(v []float64) float64 {
		var m float64
		for _, x := range v {
			m += x
		}
		return m / float64(len(v))
	}
	m1 := mean(f[len(f)-2*w : len(f)-w])
	m2 := mean(f[len(f)-w:])
	diff := math.Abs(m2 - m1)
	if diff <= tol*math.Abs(m1) {
		return true
	}
	last := f[len(f)-w:]
	var sd float64
	for _, x := range last {
		sd += (x - m2) * (x - m2)
	}
	sd = math.Sqrt(sd / float64(w-1))
	return diff <= 0.5*sd
}

// RelaxFast runs the fast RELAX solve of Algorithm 2: Hutchinson gradient
// estimation with s Rademacher probes, matrix-free Σz and Hp matvecs
// (Lemma 2), and CG preconditioned by the block-diagonal B(Σz)⁻¹. The
// context is checked at every mirror-descent iteration and inside the CG
// solves, so a cancellation or deadline aborts mid-RELAX with ctx.Err().
//
// The probe block advances through krylov.SolveBlockInto and the
// multi-RHS hessian kernels: every CG iteration, the Hp·W products, and
// the Eq. 12 gradient accumulation each visit the pool ONCE for all s
// probes. A streamed pool is therefore decoded O(iterations) times per
// mirror-descent step rather than O(probes·iterations) — the per-column
// arithmetic is unchanged (bit-for-bit with the historical per-column
// sweeps), only the sweep sharing is new.
func RelaxFast(ctx context.Context, p *Problem, b int, o RelaxOptions) (*RelaxResult, error) {
	return RelaxOn(ctx, Rank{}, p, b, o)
}

// RelaxOn runs the RelaxFast loop on rank r (see Rank), with the
// collectives of § III-C: rank 0 draws the probe block and broadcasts
// it, the Σz blocks and every block matvec are allreduced, and the
// mirror step normalizes globally. RelaxResult.Z is the rank's slice of
// z⋄; Objectives and the iteration counts are identical across ranks.
//
// o.WarmStart and o.Resume hold global weights, sliced by the rank's
// window, so a checkpoint resumes under any rank count. With a
// communicator, each OnIteration checkpoint allgathers the full simplex
// iterate — a collective, so OnIteration must be set on all ranks or on
// none — and cancellation is detected collectively once per iteration:
// the CG solves run under a background context, because a rank must not
// leave a collective matvec mid-CG.
//
//firal:hotpath
func RelaxOn(ctx context.Context, r Rank, p *Problem, b int, o RelaxOptions) (*RelaxResult, error) {
	o.defaults()
	n, ed := p.N(), p.Ed()
	total := r.total(n)
	s := o.Probes
	z := make([]float64, n) //firal:allow(alloc) the iterate escapes as RelaxResult.Z
	mat.Fill(z, 1/float64(total))
	if o.WarmStart != nil && o.Resume == nil {
		if len(o.WarmStart) != total {
			return nil, fmt.Errorf("firal: warm start has %d weights, pool has %d", len(o.WarmStart), total)
		}
		var sum float64
		for _, v := range o.WarmStart {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("firal: warm start weights must be nonnegative, got %g", v)
			}
			sum += v
		}
		if !(sum > 0) {
			return nil, fmt.Errorf("firal: warm start weights sum to %g, want > 0", sum)
		}
		copy(z, o.WarmStart[r.Offset:])
		mat.Scal(1/sum, z)
	}
	res := &RelaxResult{Timings: timing.New()}
	ph := res.Timings

	start := 1
	if o.Resume != nil {
		if len(o.Resume.Z) != total {
			return nil, fmt.Errorf("%w: checkpoint has %d weights, pool has %d", ErrBadCheckpoint, len(o.Resume.Z), total)
		}
		copy(z, o.Resume.Z[r.Offset:])
		start = o.Resume.Iteration + 1
		res.Iterations = o.Resume.Iteration
		res.CGIterations = o.Resume.CGIterations
		if o.Resume.Done {
			// Mirror descent already finished; only the b· scaling of
			// line 12 remains. The caller re-runs ROUND on the restored
			// final iterate.
			res.Z = z
			mat.Scal(float64(b), res.Z)
			return res, nil
		}
	}

	// Rank 0 owns the probe stream; with the same seed it draws exactly
	// the serial solver's probe sequence, whatever the rank count.
	var rng *rnd.Source
	if r.id() == 0 {
		rng = rnd.New(o.Seed)
	}
	// A rank must not abort a collective matvec mid-CG: ranks stop only
	// at the loop-top collective check.
	cgCtx := ctx
	if r.Comm != nil {
		cgCtx = context.Background()
	}

	// All per-iteration buffers are hoisted — drawn from the pooled
	// scratch, so consecutive same-shaped selections reuse them across
	// calls — and every solver below draws its transient scratch from ws,
	// including the preconditioner state, whose Cholesky factors are
	// refactored in place each iteration. The mirror-descent loop is
	// therefore allocation-free after the first iteration (aside from the
	// recorded histories).
	sc := getRelaxScratch(n, ed, s, p.C(), p.D())
	defer sc.release(r)
	ws := sc.ws
	g := sc.g
	v, vt, w, hpw, w2 := sc.v, sc.vt, sc.w, sc.hpw, sc.w2

	cgOpt := krylov.Options{Tol: o.CGTol, MaxIter: o.CGMaxIter, Workspace: ws}
	poolMV := p.poolMatVecBlock(r, ws, ph)
	// The operator closes over z, which the mirror step updates in place.
	sigmaMV := krylov.BlockOp(p.sigmaMatVecBlock(r, ws, z, ph))
	bp := sc.bp
	precond := krylov.BlockOp(bp.ApplyBlock)

	if o.Resume != nil {
		// Restore the objective history so convergence decisions replay
		// identically, and fast-forward the probe stream: iteration t of
		// the resumed run must see exactly the Rademacher block iteration
		// t of the uninterrupted run saw.
		sc.fHist = append(sc.fHist, o.Resume.FHist...) //firal:allow(alloc) resume path, once per run
		for t := 1; t < start && rng != nil; t++ {
			rng.Rademacher(v.Data)
		}
	}

	for t := start; t <= o.MaxIter; t++ {
		if err := r.cancelled(ctx, ph); err != nil {
			return nil, err
		}
		// Line 4: fresh Rademacher probe block V ∈ R^{dc×s}, drawn in the
		// historical ẽd×s order (MPI_Bcast of W per § III-C) and
		// transposed into the contiguous-probe layout the block solver
		// works in.
		stop := ph.Start("other")
		if rng != nil {
			rng.Rademacher(v.Data)
		}
		stop()
		r.bcast(0, v.Data, ph)
		stop = ph.Start("other")
		for j := 0; j < s; j++ {
			v.Col(vt.Row(j), j)
		}
		stop()

		// Line 5: block-diagonal preconditioner for Σz, refactored into the
		// state's persistent storage.
		sc.sigBlocks = p.sigmaBlocks(r, ws, sc.sigBlocks, z, ph, "precond")
		stop = ph.Start("precond")
		err := bp.Update(sc.sigBlocks)
		stop()
		if err != nil {
			return nil, err
		}

		// Line 6: W ← Σz⁻¹ V by lockstep block CG (zero initial guess, as
		// the buffer reuse must not introduce warm starts): one Σz·block
		// application — one pool sweep — per CG iteration. On ranks the
		// recurrences and convergence masks are replicated, so all ranks
		// enter the same number of matvec allreduces.
		stop = ph.Start("cg")
		w.Zero()
		sc.cg = krylov.SolveBlockInto(cgCtx, sigmaMV, precond, vt, w, sc.cg, cgOpt)
		res.CGIterations += krylov.TotalIterations(sc.cg)
		stop()
		if err := krylov.FirstError(sc.cg); err != nil {
			return nil, err
		}

		// Line 7: W ← Hp W in one multi-RHS sweep; also yields the free
		// objective estimate f ≈ (1/s) Σ_j v_jᵀ Σz⁻¹ Hp v_j =
		// (1/s) Σ_j v_jᵀ (Hp w_j) by symmetry of Σz and Hp.
		stop = ph.Start("gradient")
		poolMV(hpw, w)
		f := sketch.TraceFromProbesT(vt, hpw)
		stop()

		// Line 8: W ← Σz⁻¹ W by the second lockstep block CG.
		stop = ph.Start("cg")
		w2.Zero()
		sc.cg = krylov.SolveBlockInto(cgCtx, sigmaMV, precond, hpw, w2, sc.cg, cgOpt)
		res.CGIterations += krylov.TotalIterations(sc.cg)
		stop()
		if err := krylov.FirstError(sc.cg); err != nil {
			return nil, err
		}

		// Line 9: g_i ← −(1/s) Σ_j v_jᵀ H_i w_j over the (local) pool — all
		// probes accumulated in one sweep.
		stop = ph.Start("gradient")
		mat.Fill(g, 0)
		hessian.QuadAccumBlockWS(ws, p.Pool, g, vt, w2, -1/float64(s))
		stop()

		// Lines 10–11: entropic mirror-descent update.
		r.mirrorStep(z, g, o.Beta0, t, ph)

		res.Iterations = t
		sc.fHist = append(sc.fHist, f) //firal:allow(alloc) recorded history, one float per iteration
		if o.RecordObjective {
			res.Objectives = append(res.Objectives, f) //firal:allow(alloc) diagnostics mode
		}
		if o.OnIteration != nil {
			ck := RelaxCheckpoint{Iteration: t, Z: r.gather(z, ph), FHist: sc.fHist, CGIterations: res.CGIterations}
			o.OnIteration(&ck)
		}
		// f is identical on every rank, so the windowed stop fires in
		// lockstep.
		if o.FixedIterations == 0 && StochasticConverged(sc.fHist, o.ObjTol) {
			break
		}
	}
	if o.OnIteration != nil {
		// Final Done checkpoint: a caller interrupted during the ROUND
		// phase resumes with mirror descent skipped.
		ck := RelaxCheckpoint{Iteration: res.Iterations, Done: true, Z: r.gather(z, ph), FHist: sc.fHist, CGIterations: res.CGIterations}
		o.OnIteration(&ck)
	}

	// Line 12: z⋄ ← b·z.
	res.Z = z
	mat.Scal(float64(b), res.Z)
	return res, nil
}
