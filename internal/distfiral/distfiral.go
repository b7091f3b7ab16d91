// Package distfiral lays out the distributed-memory parallel
// Approx-FIRAL of § III-C on top of the internal/mpi runtime. The data
// layout follows the paper: the n pool points (x_i, h_i) are evenly
// partitioned across the p ranks, while all ẽd-length vectors and all
// O(cd²) block matrices are replicated. The solver itself is the serial
// one: Relax and Round run firal.RelaxOn and firal.RoundOn over the
// rank's communicator (see firal.Rank). Communication per § III-C:
//
//   - RELAX: MPI_Allreduce to sum the block-diagonal preconditioner and the
//     partial fast-matvec results inside CG; the probe block is broadcast
//     from rank 0.
//   - ROUND: MPI_Allreduce (maxloc) to pick the globally best candidate;
//     MPI_Bcast of the winner's (x, h); MPI_Allgather of the block
//     eigenvalues, which are computed c/p blocks per rank.
package distfiral

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// Shard is one rank's view of the selection problem: the (small) labeled
// set replicated everywhere and this rank's contiguous slice of the pool.
// A Shard is owned by its rank goroutine.
type Shard struct {
	Labeled   *hessian.Set // Xo, replicated
	PoolLocal hessian.Pool // local slice of Xu (resident or block-streaming)
	// PoolOffset is the global index of the first local pool point.
	PoolOffset int
	// PoolTotal is the global pool size n.
	PoolTotal int

	// prob is the rank's firal.Problem, built on first use so its
	// labeled-block cache lasts as long as the Shard.
	prob *firal.Problem
}

// problem returns the rank's firal.Problem over the local pool and its
// place in the global pool on communicator c.
func (s *Shard) problem(c *mpi.Comm) (firal.Rank, *firal.Problem) {
	if s.prob == nil {
		s.prob = firal.NewProblem(s.Labeled, s.PoolLocal)
	}
	return firal.Rank{Comm: c, Offset: s.PoolOffset, Total: s.PoolTotal}, s.prob
}

// MakeShard cuts rank's partition out of a global pool, mirroring the
// paper's even distribution of x_i and h_i. The partition is materialized
// (copied); MakeStreamShard shards without materializing.
func MakeShard(labeled, pool *hessian.Set, size, rank int) *Shard {
	lo, hi := mpi.Partition(pool.N(), size, rank)
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return &Shard{
		Labeled:    labeled,
		PoolLocal:  pool.Subset(idx),
		PoolOffset: lo,
		PoolTotal:  pool.N(),
	}
}

// MakeStreamShard cuts rank's partition out of a streamed global pool:
// the rank-local pool is a hessian.Stream over a prefetched Subrange view
// of src, so nothing is materialized — every rank reads its contiguous
// row window of the shared source (safe: dataset sources support
// concurrent ReadRows) and indexes its slice of the replicated
// probability matrix, with each rank's next block decoding under the
// current block's kernels (dataset.WithPrefetch; resident sources skip
// the wrapper). blockRows ≤ 0 selects the default block granularity.
func MakeStreamShard(labeled *hessian.Set, src dataset.PoolSource, probs *mat.Dense, blockRows, size, rank int) *Shard {
	n := src.NumRows()
	lo, hi := mpi.Partition(n, size, rank)
	view := dataset.WithPrefetch(nil, dataset.Subrange(src, lo, hi), blockRows)
	local := hessian.NewStream(view, probs.RowSlice(lo, hi), blockRows)
	return &Shard{
		Labeled:    labeled,
		PoolLocal:  local,
		PoolOffset: lo,
		PoolTotal:  n,
	}
}

// RelaxResult reports a distributed RELAX solve on one rank: the
// embedded firal.RelaxResult's Objectives and iteration counts are
// identical across ranks, and its Timings hold this rank's phase
// breakdown ("precond", "cg", "gradient", "comm", "other").
type RelaxResult struct {
	*firal.RelaxResult
	// ZLocal is this rank's slice of z⋄ = b·z (the embedded Z).
	ZLocal []float64
}

// Relax runs the distributed fast RELAX (Algorithm 2 over MPI) through
// firal.RelaxOn. Cancellation is detected collectively once per
// mirror-descent iteration; all ranks abort together with the context
// error.
//
// o.OnIteration and o.Resume work as in the serial solver, with global
// checkpoints: each completed iteration allgathers the full simplex
// iterate so every rank holds an identical RelaxCheckpoint that can be
// resumed under a different rank count (the pool is re-sliced by this
// rank's Partition window). Because the checkpoint gather is a
// collective, OnIteration must be set on all ranks or on none. A lost
// rank surfaces as an error satisfying errors.Is(err, mpi.ErrRankLost);
// see SelectResilient for the heal-reshard-resume loop.
func Relax(ctx context.Context, c *mpi.Comm, s *Shard, b int, o firal.RelaxOptions) (res *RelaxResult, err error) {
	defer mpi.RecoverLost(&err)
	r, p := s.problem(c)
	relax, err := firal.RelaxOn(ctx, r, p, b, o)
	if err != nil {
		return nil, err
	}
	return &RelaxResult{RelaxResult: relax, ZLocal: relax.Z}, nil
}
