package distfiral

import (
	"context"

	"repro/internal/firal"
	"repro/internal/mpi"
)

// RoundResult reports a distributed ROUND solve. Selected indices are
// global pool indices and identical across ranks; the embedded Timings
// hold this rank's phase breakdown ("objective", "eig", "comm", "other").
type RoundResult struct {
	*firal.RoundResult
	// Eta is the learning rate η the step ran with: the caller's, or the
	// Theorem-1 default 8·√(ẽd) when the caller passed η ≤ 0.
	Eta float64
}

// Round runs the distributed diagonal ROUND step (Algorithm 3 over MPI)
// through firal.RoundOn: every rank keeps the replicated O(cd²) block
// state, scores its local pool partition, and the per-round argmax,
// winner broadcast, and eigenvalue allgather follow § III-C. zLocal is
// this rank's slice of z⋄. Cancellation is detected collectively once
// per selected candidate. A lost rank surfaces as an error satisfying
// errors.Is(err, mpi.ErrRankLost); see SelectResilient for the
// heal-reshard-resume loop.
//
// exclude lists global pool indices the step must not select (tombstones
// from earlier selection rounds, mirroring firal.Options.Exclude); it
// must be identical on every rank.
func Round(ctx context.Context, c *mpi.Comm, s *Shard, zLocal []float64, b int, eta float64, exclude ...int) (res *RoundResult, err error) {
	defer mpi.RecoverLost(&err)
	r, p := s.problem(c)
	if eta <= 0 {
		eta = p.DefaultEta()
	}
	round, err := firal.RoundOn(ctx, r, p, zLocal, b, firal.RoundOptions{Eta: eta, Exclude: exclude})
	if err != nil {
		return nil, err
	}
	return &RoundResult{RoundResult: round, Eta: eta}, nil
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
