package firal

import (
	"context"
	"math"
	"sync"

	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/timing"
)

// RoundState carries the per-class block matrices of the diagonal ROUND
// step (Algorithm 3). All blocks are d×d; there are c of each, so the
// state costs O(cd²) — this is what replaces Exact-FIRAL's dense ẽd×ẽd
// matrices. The state is replicated on every rank of a distributed
// solve (see Rank).
type RoundState struct {
	eta   float64
	b     int
	d, c  int
	edF   float64
	sig   []*mat.Dense // (Σ⋄)_k
	ho    []*mat.Dense // (Ho)_k
	isqrt []*mat.Dense // (Σ⋄)_k^{-1/2}
	binv  []*mat.Dense // (B_t)⁻¹_k
	hacc  []*mat.Dense // (H)_k accumulated (line 8)

	// Persistent scratch, reused across the b inner iterations so the hot
	// Scores/Eigvals/finishUpdate loop stays allocation-free after
	// warm-up. A RoundState is owned by one goroutine.
	ws     *mat.Workspace
	tmp    *mat.Dense   // d×d product scratch
	pk     *mat.Dense   // d×d product scratch (H̃_k)
	chol   mat.Cholesky // persistent factor storage for the (B_t)⁻¹ rebuild
	pks    []*mat.Dense // per-class P_k = B⁻¹_k (Σ⋄)_k B⁻¹_k (Scores)
	xmBuf  []float64    // block×d Scores product scratch (lazily sized)
	qp, qb []float64    // block Scores row-dot scratch
	lamBuf []float64    // concatenated eigenvalues (Eigvals)
	valBuf []float64    // single-block eigenvalues (Eigvals)
	nuBuf  []float64    // scaled eigenvalues (finishUpdate)
	win    []float64    // winner's (x, h, global index), broadcast on ranks
}

// NewRoundState performs lines 3–5 of Algorithm 3 given the diagonal
// blocks of Σ⋄ and Ho: it builds the inverse square roots (Σ⋄)_k^{-1/2}
// (for the eigenvalue transform of line 9), the initial (B_1)⁻¹_k, and
// zeroed accumulators (H)_k. The blocks are retained by the state and
// must not be mutated by the caller afterwards; the state itself only
// reads them (callers may pass cached blocks they also keep).
func NewRoundState(sig, ho []*mat.Dense, b int, eta float64, ph *timing.Phases) (*RoundState, error) {
	return newRoundStateInto(nil, sig, ho, b, eta, ph)
}

// ensureRoundState returns prev when it matches the block shape (its
// scratch, accumulators, and inverse-block storage are recycled), or
// fresh storage otherwise.
func ensureRoundState(prev *RoundState, d, c int) *RoundState {
	if prev != nil && prev.d == d && prev.c == c {
		return prev
	}
	st := &RoundState{
		d: d, c: c,
		hacc:  make([]*mat.Dense, c),
		binv:  make([]*mat.Dense, c),
		isqrt: make([]*mat.Dense, c),
		ws:    mat.NewWorkspace(),
		tmp:   mat.NewDense(d, d),
		pk:    mat.NewDense(d, d),
		win:   make([]float64, d+c+1),
	}
	for k := 0; k < c; k++ {
		st.hacc[k] = mat.NewDense(d, d)
	}
	return st
}

// newRoundStateInto is NewRoundState reusing a previous state's storage
// (pooled by RoundFast): when prev matches the block shape, its scratch,
// accumulators, and inverse-block storage are recycled and only the
// genuinely input-dependent eigendecompositions behind (Σ⋄)_k^{-1/2}
// allocate. A nil or mismatched prev builds fresh storage.
func newRoundStateInto(prev *RoundState, sig, ho []*mat.Dense, b int, eta float64, ph *timing.Phases) (*RoundState, error) {
	c := len(sig)
	if c == 0 || len(ho) != c {
		panic("firal: RoundState needs matching non-empty block sets")
	}
	d := sig[0].Rows
	st := ensureRoundState(prev, d, c)
	st.eta, st.b, st.edF = eta, b, float64(d*c)
	st.sig, st.ho = sig, ho

	if err := st.invSqrtBlocks(ph); err != nil {
		return nil, err
	}

	stop := ph.Start("other")
	sqrtEd := math.Sqrt(st.edF)
	for k := 0; k < c; k++ {
		b1 := st.tmp
		b1.CopyFrom(st.sig[k])
		b1.Scale(sqrtEd)
		b1.AddScaled(eta/float64(b), st.ho[k])
		if _, err := st.chol.FactorRidge(b1, choleskyRidge); err != nil {
			return nil, err
		}
		st.binv[k] = st.chol.InverseInto(st.ws, st.binv[k])
		st.hacc[k].Zero()
	}
	stop()
	return st, nil
}

// invSqrtBlocks rebuilds the (Σ⋄)_k^{-1/2} transforms from the current
// sig blocks (line 4 of Algorithm 3).
func (st *RoundState) invSqrtBlocks(ph *timing.Phases) error {
	stop := ph.Start("eig")
	defer stop()
	for k := 0; k < st.c; k++ {
		sf, err := mat.NewSPDFuncs(st.sig[k], 1e-10)
		if err != nil {
			return err
		}
		st.isqrt[k] = sf.InvSqrt()
	}
	return nil
}

// NewRoundStateFromFactors is NewRoundState with the B₁ factorizations
// already in hand: instead of assembling and factoring
// √ẽd·(Σ⋄)_k + (η/b)·(Ho)_k per class, the supplied factors — kept
// current across rounds by rank-1 updates (see Incremental) — are
// inverted directly, so starting round t+1 costs O(cd³) with no fresh
// Gram assembly. The factors and blocks are read, not consumed; repeated
// rounds off one maintained state stay valid.
func NewRoundStateFromFactors(prev *RoundState, sig, ho []*mat.Dense, factors []mat.Cholesky, b int, eta float64, ph *timing.Phases) (*RoundState, error) {
	c := len(sig)
	if c == 0 || len(ho) != c || len(factors) != c {
		panic("firal: RoundState needs matching non-empty block and factor sets")
	}
	d := sig[0].Rows
	st := ensureRoundState(prev, d, c)
	st.eta, st.b, st.edF = eta, b, float64(d*c)
	st.sig, st.ho = sig, ho

	if err := st.invSqrtBlocks(ph); err != nil {
		return nil, err
	}

	stop := ph.Start("other")
	for k := 0; k < c; k++ {
		st.binv[k] = factors[k].InverseInto(st.ws, st.binv[k])
		st.hacc[k].Zero()
	}
	stop()
	return st, nil
}

// NumBlocks returns the number of Fisher blocks c.
func (st *RoundState) NumBlocks() int { return st.c }

// Scores evaluates the equivalent ROUND objective of Proposition 4 /
// Eq. 17 for every point of pool (scores to maximize):
//
//	r_i = Σ_k γ_ik · x_iᵀ B⁻¹_k (Σ⋄)_k B⁻¹_k x_i / (1 + η γ_ik x_iᵀ B⁻¹_k x_i)
//
// with γ_ik = h_ik(1 − h_ik). The pool is visited in row blocks
// (outermost) with all c classes evaluated per block, so a streamed pool
// is read exactly once per rescoring pass; each class contributes two
// batched GEMM + row-dot passes per block and the cost is O(n c d²) per
// round (Table II). The per-class P_k products are hoisted into
// persistent state before the sweep.
//
//firal:hotpath
func (st *RoundState) Scores(pool hessian.Pool, dst []float64) {
	n := pool.N()
	if len(dst) != n {
		panic("firal: scores destination length mismatch")
	}
	mat.Fill(dst, 0)
	if n == 0 {
		return
	}
	// P_k = B⁻¹_k (Σ⋄)_k B⁻¹_k, shared by every block of this pass.
	//firal:allow(alloc) — lazy init, once per state
	if st.pks == nil {
		st.pks = make([]*mat.Dense, st.c)
		for k := range st.pks {
			st.pks[k] = mat.NewDense(st.d, st.d)
		}
	}
	for k := 0; k < st.c; k++ {
		mat.Mul(st.tmp, st.binv[k], st.sig[k])
		mat.Mul(st.pks[k], st.tmp, st.binv[k])
	}
	h := pool.Probs()
	bs := min(pool.BlockRows(), n)
	// Guard every buffer: xmBuf's capacity can be rounded up by the
	// allocator while qp/qb land exactly on their size class, so a state
	// reused with a slightly larger block size could pass an xmBuf-only
	// check and then overrun qp/qb.
	//firal:allow(alloc) — amortized: regrows only when the block size grows
	if cap(st.xmBuf) < bs*st.d || cap(st.qp) < bs {
		st.xmBuf = make([]float64, bs*st.d)
		st.qp = make([]float64, bs)
		st.qb = make([]float64, bs)
	}
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		m := hi - lo
		xb := pool.Block(st.ws, lo, hi)
		xm := st.ws.View(st.xmBuf[:m*st.d], m, st.d)
		qp, qb := st.qp[:m], st.qb[:m]
		for k := 0; k < st.c; k++ {
			mat.Mul(xm, xb, st.pks[k])
			mat.RowDots(qp, xb, xm)
			mat.Mul(xm, xb, st.binv[k])
			mat.RowDots(qb, xb, xm)
			for i := 0; i < m; i++ {
				hv := h.At(lo+i, k)
				gamma := hv * (1 - hv)
				if gamma == 0 {
					continue
				}
				dst[lo+i] += gamma * qp[i] / (1 + st.eta*gamma*qb[i])
			}
		}
		st.ws.PutView(xm)
		pool.PutBlock(st.ws, xb)
	}
}

// AddPoint accumulates the chosen point into (H)_k (line 8):
// (H)_k ← (H)_k + (1/b)(Ho)_k + h_k(1−h_k) x xᵀ.
//
//firal:hotpath
func (st *RoundState) AddPoint(x, h []float64) {
	for k := 0; k < st.c; k++ {
		st.hacc[k].AddScaled(1/float64(st.b), st.ho[k])
		gamma := h[k] * (1 - h[k])
		if gamma != 0 {
			st.hacc[k].AddOuter(gamma, x)
		}
	}
}

// Update performs lines 8–11 of Algorithm 3 for the chosen point (x, h):
// AddPoint, block eigenvalues, ν bisection, and the (B_{t+1})⁻¹ rebuild.
// It returns ν_{t+1}.
func (st *RoundState) Update(x, h []float64, ph *timing.Phases) (float64, error) {
	return st.update(Rank{}, x, h, ph)
}

// update is Update on rank r, which computes the eigenvalues of its c/p
// blocks and allgathers them (line 9 per § III-C).
func (st *RoundState) update(r Rank, x, h []float64, ph *timing.Phases) (float64, error) {
	stop := ph.Start("other")
	st.AddPoint(x, h)
	stop()

	stop = ph.Start("eig")
	lam, err := st.Eigvals(r.blocks(st.c))
	stop()
	if err != nil {
		return 0, err
	}
	return st.finishUpdate(r.gather(lam, ph), ph)
}

// Eigvals computes the eigenvalues of (H̃)_k = (Σ⋄)_k^{-1/2} (H)_k
// (Σ⋄)_k^{-1/2} for classes [kLo, kHi), concatenated (line 9). The
// returned slice is state-owned scratch, valid until the next Eigvals
// call on this state.
func (st *RoundState) Eigvals(kLo, kHi int) ([]float64, error) {
	out := st.lamBuf[:0]
	for k := kLo; k < kHi; k++ {
		mat.Mul(st.tmp, st.isqrt[k], st.hacc[k])
		mat.Mul(st.pk, st.tmp, st.isqrt[k])
		st.pk.Symmetrize()
		vals, err := mat.SymEigvalsInto(st.ws, st.valBuf, st.pk)
		if err != nil {
			return nil, err
		}
		st.valBuf = vals
		out = append(out, vals...)
	}
	st.lamBuf = out
	return out, nil
}

// finishUpdate solves for ν_{t+1} from the full eigenvalue set (line 10)
// and rebuilds the block inverses (line 11).
func (st *RoundState) finishUpdate(lam []float64, ph *timing.Phases) (float64, error) {
	stop := ph.Start("other")
	defer stop()
	if cap(st.nuBuf) < len(lam) {
		st.nuBuf = make([]float64, len(lam))
	}
	scaled := st.nuBuf[:len(lam)]
	for i, l := range lam {
		if l < 0 {
			l = 0 // roundoff guard: H̃ is PSD
		}
		scaled[i] = st.eta * l
	}
	nu, err := solveNu(scaled, st.edF)
	if err != nil {
		return 0, err
	}
	// Rebuild (B_{t+1})⁻¹_k in place: the persistent factor storage and
	// the retained binv blocks absorb the per-iteration Cholesky work, so
	// the rebuild allocates nothing after the state is warm.
	for k := 0; k < st.c; k++ {
		bt := st.tmp
		bt.CopyFrom(st.sig[k])
		bt.Scale(nu)
		bt.AddScaled(st.eta, st.hacc[k])
		bt.AddScaled(st.eta/float64(st.b), st.ho[k])
		if _, err := st.chol.FactorRidge(bt, choleskyRidge); err != nil {
			return 0, err
		}
		st.chol.InverseInto(st.ws, st.binv[k])
	}
	return nu, nil
}

// MinEig returns min_k λ_min((H)_k) of the accumulated selected-point
// Hessian blocks — the η-tuning criterion.
func (st *RoundState) MinEig() float64 {
	minEig := math.Inf(1)
	for _, blk := range st.hacc {
		vals, err := mat.SymEigvals(blk)
		if err != nil || len(vals) == 0 {
			return math.Inf(-1)
		}
		if vals[0] < minEig {
			minEig = vals[0]
		}
	}
	return minEig
}

// roundScratch pools RoundFast's per-call setup: the score and selection
// vectors plus the previous RoundState and Σ⋄ blocks, whose storage the
// next same-shaped call reuses (the state retains the blocks, so both
// recycle together — a pooled state never outlives its blocks). Like the
// RELAX scratch pool this only matters for tiny rounds, where the setup
// used to rival the solve, and likewise only serial solves return their
// scratch to the pool.
type roundScratch struct {
	n, d, c  int
	ws       *mat.Workspace // block-setup scratch (sigmaBlocks)
	scores   []float64
	selected []bool
	sig      []*mat.Dense
	st       *RoundState
}

var roundScratchPool = sync.Pool{New: func() any { return &roundScratch{ws: mat.NewWorkspace()} }}

func getRoundScratch(n, d, c int) *roundScratch {
	sc := roundScratchPool.Get().(*roundScratch)
	if sc.n != n {
		sc.scores = make([]float64, n)
		sc.selected = make([]bool, n)
	} else {
		for i := range sc.selected {
			sc.selected[i] = false
		}
	}
	if sc.d != d || sc.c != c {
		sc.sig = nil // sigmaBlocks re-allocates to the new shape
		sc.st = nil  // newRoundStateInto builds fresh storage
	}
	sc.n, sc.d, sc.c = n, d, c
	return sc
}

// release returns a serial solve's scratch to the pool.
func (sc *roundScratch) release(r Rank) {
	if r.Comm == nil {
		roundScratchPool.Put(sc)
	}
}

// RoundFast runs the diagonal ROUND step of Algorithm 3: all Fisher
// matrices keep only their d×d diagonal blocks (Eq. 14), the low-rank
// block update of Lemma 3 turns the FTRL objective into the closed form of
// Eq. 17, and each iteration costs O(ncd² + cd³) instead of Exact-FIRAL's
// O(nc³ + c³d³) (Table II).
func RoundFast(p *Problem, z []float64, b int, o RoundOptions) (*RoundResult, error) {
	return RoundOn(context.Background(), Rank{}, p, z, b, o)
}

// RoundOn runs the RoundFast loop on rank r (see Rank): z is the rank's
// slice of z⋄, and o.Exclude and the returned Selected are global pool
// indices, identical across ranks. The Σ⋄ blocks are allreduced, every
// rank keeps the replicated O(cd²) state and scores its local rows, and
// each greedy step takes the global argmax by a maxloc reduction and
// broadcasts the winner's (x, h) from its owner (§ III-C). The budget is
// clamped to the global pool size. With a communicator, cancellation is
// detected collectively once per selected candidate.
func RoundOn(ctx context.Context, r Rank, p *Problem, z []float64, b int, o RoundOptions) (*RoundResult, error) {
	if o.Eta <= 0 {
		o.Eta = p.DefaultEta()
	}
	res := &RoundResult{Timings: timing.New()}
	ph := res.Timings

	n := p.N()
	sc := getRoundScratch(n, p.D(), p.C())
	defer sc.release(r)
	// The Ho blocks alias the Problem's labeled-block cache — safe because
	// both the cache and the RoundState treat them as read-only.
	sc.sig = p.sigmaBlocks(r, sc.ws, sc.sig, z, ph, "other")
	st, err := newRoundStateInto(sc.st, sc.sig, p.labeledBlocks(), b, o.Eta, ph)
	if err != nil {
		return nil, err
	}
	sc.st = st
	for _, i := range o.Exclude {
		if li := i - r.Offset; li >= 0 && li < n {
			sc.selected[li] = true
		}
	}
	if err := runRoundLoop(ctx, r, p.Pool, st, min(b, r.total(n)), sc.scores, sc.selected, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runRoundLoop executes the b greedy iterations of Algorithm 3 lines
// 6–11 over the rank's pool: rescore, argmax over unselected points, and
// the FTRL state update for the winner. selected marks local points the
// loop must skip (earlier selections, the caller's exclude set) and is
// updated in place; scores is caller scratch of the local pool length.
// Shared by RoundOn and the incremental delta rounds, which differ only
// in how the entering RoundState was built.
//
//firal:hotpath
func runRoundLoop(ctx context.Context, r Rank, pool hessian.Pool, st *RoundState, b int, scores []float64, selected []bool, res *RoundResult) error {
	n := pool.N()
	probs := pool.Probs()
	ph := res.Timings
	d, c := st.d, st.c
	x, h := st.win[:d], st.win[d:d+c]
	for t := 1; t <= b; t++ {
		if err := r.cancelled(ctx, ph); err != nil {
			return err
		}
		stop := ph.Start("objective")
		st.Scores(pool, scores)
		stop()

		stop = ph.Start("other")
		best, bestV := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			if scores[i] > bestV {
				best, bestV = i, scores[i]
			}
		}
		stop()
		bestV, owner, best := r.maxLoc(bestV, best, ph)
		if best < 0 {
			break // every rank exhausted its rows
		}

		// The winner's owner fills (x, h, global index) and broadcasts it
		// (line 11's MPI_Bcast of x_it, h_it; O(c+d) payload).
		stop = ph.Start("other")
		if owner == r.id() {
			selected[best] = true
			copy(x, pool.Row(best, x))
			copy(h, probs.Row(best))
			st.win[d+c] = float64(r.Offset + best)
		}
		stop()
		r.bcast(owner, st.win, ph)
		res.Selected = append(res.Selected, int(st.win[d+c])) //firal:allow(alloc) result history, one entry per selection
		res.Objectives = append(res.Objectives, bestV)        //firal:allow(alloc) result history, one entry per selection

		nu, err := st.update(r, x, h, ph)
		if err != nil {
			return err
		}
		res.Nu = append(res.Nu, nu) //firal:allow(alloc) result history, one entry per selection
	}
	stop := ph.Start("eig")
	res.MinEigH = st.MinEig()
	stop()
	return nil
}
