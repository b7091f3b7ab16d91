package distfiral

import (
	"context"
	"math"

	"repro/internal/firal"
	"repro/internal/mpi"
	"repro/internal/timing"
)

// RoundResult reports a distributed ROUND solve. Selected indices are
// global pool indices and identical across ranks.
type RoundResult struct {
	Selected []int
	Nu       []float64
	MinEigH  float64
	// Eta is the learning rate η the step ran with: the caller's, or the
	// Theorem-1 default 8·√(ẽd) when the caller passed η ≤ 0.
	Eta float64
	// Timings holds this rank's phase breakdown ("objective", "eig",
	// "comm", "other").
	Timings *timing.Phases
}

// Round runs the distributed diagonal ROUND step (Algorithm 3 over MPI):
// every rank keeps the replicated O(cd²) block state, scores its local
// pool partition, and the per-round argmax, winner broadcast, and
// eigenvalue allgather follow § III-C. zLocal is this rank's slice of z⋄.
// Cancellation is detected collectively once per selected candidate. A
// lost rank surfaces as an error satisfying errors.Is(err,
// mpi.ErrRankLost); see SelectResilient for the heal-reshard-resume loop.
//
// exclude lists global pool indices the step must not select (tombstones
// from earlier selection rounds, mirroring firal.Options.Exclude); it
// must be identical on every rank.
func Round(ctx context.Context, c *mpi.Comm, s *Shard, zLocal []float64, b int, eta float64, exclude ...int) (res *RoundResult, err error) {
	defer mpi.RecoverLost(&err)
	if eta <= 0 {
		eta = 8 * math.Sqrt(float64(s.Ed()))
	}
	res = &RoundResult{Eta: eta, Timings: timing.New()}
	ph := res.Timings
	d, cc := s.D(), s.C()

	// Global Σ⋄ and Ho blocks (allreduced pool part + replicated labeled
	// part), then the replicated RoundState (lines 3–5 of Algorithm 3).
	// The blocks are retained by the RoundState, so they must be fresh,
	// not the Shard's reusable RELAX cache.
	sig := s.sigmaBlocks(c, zLocal, ph, false)
	stop := ph.Start("other")
	ho := s.labeledDiag()
	stop()
	st, err := firal.NewRoundState(sig, ho, b, eta, ph)
	if err != nil {
		return nil, err
	}

	nLocal := s.PoolLocal.N()
	scores := make([]float64, nLocal)
	selectedLocal := make(map[int]bool, b+len(exclude))
	for _, gi := range exclude {
		if li := gi - s.PoolOffset; li >= 0 && li < nLocal {
			selectedLocal[li] = true
		}
	}
	probsLocal := s.PoolLocal.Probs()
	rowBuf := make([]float64, d)
	// Winner broadcast buffer: x (d), h (c), global index (1).
	xh := make([]float64, d+cc+1)
	kLo, kHi := mpi.Partition(cc, c.Size(), c.Rank())

	budget := b
	if s.PoolTotal < budget {
		budget = s.PoolTotal
	}
	for t := 1; t <= budget; t++ {
		if collectiveCancelled(ctx, c, ph) {
			return nil, ctxErr(ctx)
		}
		// Line 7: local objective + global argmax via maxloc reduction.
		stop := ph.Start("objective")
		st.Scores(s.PoolLocal, scores)
		stop()

		stop = ph.Start("other")
		bestLocal, bestVal := -1, math.Inf(-1)
		for i := 0; i < nLocal; i++ {
			if selectedLocal[i] {
				continue
			}
			if scores[i] > bestVal {
				bestLocal, bestVal = i, scores[i]
			}
		}
		if bestLocal < 0 {
			bestVal = math.Inf(-1)
		}
		stop()

		stop = ph.Start("comm")
		_, ownerRank, ownerLoc := c.AllreduceMaxLoc(bestVal, bestLocal)
		stop()
		if ownerLoc < 0 {
			break // every rank exhausted its partition
		}

		// Winner's global index and (x, h) broadcast (line 11's
		// MPI_Bcast of x_it, h_it; O(c+d) payload).
		stop = ph.Start("other")
		if c.Rank() == ownerRank {
			selectedLocal[ownerLoc] = true
			copy(xh[:d], s.PoolLocal.Row(ownerLoc, rowBuf))
			copy(xh[d:d+cc], probsLocal.Row(ownerLoc))
			xh[d+cc] = float64(s.PoolOffset + ownerLoc)
		}
		stop()
		stop = ph.Start("comm")
		c.Bcast(ownerRank, xh)
		stop()
		res.Selected = append(res.Selected, int(xh[d+cc]))

		// Line 8: accumulate (H)_k (replicated).
		stop = ph.Start("other")
		st.AddPoint(xh[:d], xh[d:d+cc])
		stop()

		// Line 9: eigenvalues of this rank's c/p blocks, then allgather.
		stop = ph.Start("eig")
		lamLocal, err := st.Eigvals(kLo, kHi)
		stop()
		if err != nil {
			return nil, err
		}
		stop = ph.Start("comm")
		lam, _ := c.Allgatherv(lamLocal)
		stop()

		// Lines 10–11: ν bisection + block-inverse rebuild (replicated).
		nu, err := st.FinishUpdate(lam, ph)
		if err != nil {
			return nil, err
		}
		res.Nu = append(res.Nu, nu)
	}

	stop = ph.Start("eig")
	res.MinEigH = st.MinEig()
	stop()
	return res, nil
}

// Select runs the full distributed Approx-FIRAL (RELAX + ROUND) on one
// rank's shard. All ranks return identical Selected slices; exclude is
// passed to ROUND, as in Round. Cancelling the context aborts all ranks
// together at the next collective check.
func Select(ctx context.Context, c *mpi.Comm, s *Shard, b int, eta float64, relaxOpts firal.RelaxOptions, exclude ...int) ([]int, *RelaxResult, *RoundResult, error) {
	relax, err := Relax(ctx, c, s, b, relaxOpts)
	if err != nil {
		return nil, nil, nil, err
	}
	round, err := Round(ctx, c, s, relax.ZLocal, b, eta, exclude...)
	if err != nil {
		return nil, relax, nil, err
	}
	return round.Selected, relax, round, nil
}
