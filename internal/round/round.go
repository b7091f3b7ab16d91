// Package round is the one streamed selection-round pipeline behind the
// firald service, the firal -shards CLI and the in-process Dist-FIRAL
// selector: Probs is the single probability sweep over a
// dataset.PoolSource, and Select the single streamed FIRAL selection —
// serial Approx-FIRAL (RELAX, Algorithm 2, then ROUND, Algorithm 3) over a
// prefetched block stream, or its § III-C distributed form over MPI
// ranks. Callers keep what only they know, such as the service's
// probability cache and checkpoint files, which reach the solver through
// RelaxOptions.
package round

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/distfiral"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/softmax"
)

// Probs applies the classifier weights theta (d×c) to pool rows [lo, hi)
// of src in one forward sweep of blockRows-row blocks (≤ 0 selects
// dataset.DefaultBlockRows) and writes each row's class probabilities
// into the same row of dst, leaving dst's other rows untouched. dst has c
// columns for the full softmax the uncertainty baselines score, or c−1
// for the reduced form of Eq. 1 the FIRAL solvers consume (last class
// dropped). Only dst is resident, never the features.
func Probs(dst *mat.Dense, src dataset.PoolSource, theta *mat.Dense, blockRows, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	if blockRows <= 0 {
		blockRows = dataset.DefaultBlockRows
	}
	block := mat.NewDense(min(blockRows, hi-lo), src.Dim())
	probsBlock := mat.NewDense(block.Rows, theta.Cols)
	for blo := lo; blo < hi; blo += block.Rows {
		bhi := min(blo+block.Rows, hi)
		xb := block.RowSlice(0, bhi-blo)
		if err := src.ReadRows(blo, bhi, xb); err != nil {
			return err
		}
		pb := softmax.Probabilities(probsBlock.RowSlice(0, bhi-blo), xb, theta)
		for i := blo; i < bhi; i++ {
			copy(dst.Row(i), pb.Row(i - blo)[:dst.Cols])
		}
	}
	return nil
}

// Spec describes one streamed FIRAL selection.
type Spec struct {
	// Labeled is the labeled set Xo with its reduced probabilities.
	Labeled *hessian.Set
	// Src serves the pool features and Probs holds the pool's reduced
	// probabilities; the selection runs over rows [0, Probs.Rows) of Src,
	// which pins a growable source to the round's row count. For a
	// fixed-size source spanning the whole pool the serial path's
	// prefetcher closes Src when the selection returns.
	Src   dataset.PoolSource
	Probs *mat.Dense
	// BlockRows is the streaming row-block size (≤ 0: dataset default).
	BlockRows int
	// Budget is the batch size b; Eta the ROUND learning rate (0: the
	// Theorem-1 default).
	Budget int
	Eta    float64
	// Relax configures RELAX. A set OnIteration runs on every rank, since
	// the distributed checkpoint gather is a collective, but only rank 0
	// forwards it.
	Relax firal.RelaxOptions
	// Exclude lists global pool rows ROUND must not select.
	Exclude []int

	// Ranks > 0 runs Dist-FIRAL on that many in-process ranks (mpi.Run),
	// each with allreduce pipeline chunk Chunk. Comm instead runs it with
	// this process as one rank of a caller-built communicator, healing
	// lost ranks (distfiral.SelectResilient) when the communicator has an
	// operation timeout. With neither, Select runs serial Approx-FIRAL.
	Ranks int
	Chunk int
	Comm  *mpi.Comm
	// Shards, when set, builds the distributed ranks' shards in place of
	// stream shards over Src and Probs.
	Shards distfiral.ShardMaker
}

// Result reports one selection.
type Result struct {
	// Selected holds global pool rows, identical on every rank.
	Selected []int
	// Eta is the ROUND learning rate used.
	Eta float64
	// RelaxIterations and CGIterations count RELAX work (rank 0's view).
	RelaxIterations, CGIterations int
	// LostRanks and Heals report the rank failures a healed Comm run
	// recovered from, and Rank/Size this process's place in the healed
	// communicator (distfiral.ResilientResult).
	LostRanks  []int
	Heals      int
	Rank, Size int
}

// Select runs the selection s describes. The distributed forms return
// the first rank error in rank order.
func Select(ctx context.Context, s Spec) (*Result, error) {
	if s.Ranks <= 0 && s.Comm == nil {
		return approx(ctx, s)
	}
	mk := s.Shards
	if mk == nil {
		pinned := dataset.Subrange(s.Src, 0, s.Probs.Rows)
		mk = func(size, rank int) (*distfiral.Shard, error) {
			return distfiral.MakeStreamShard(s.Labeled, pinned, s.Probs, s.BlockRows, size, rank), nil
		}
	}
	if s.Comm != nil {
		return onRank(ctx, s.Comm, mk, s)
	}
	outs := make([]*Result, s.Ranks)
	errs := make([]error, s.Ranks)
	mpi.Run(s.Ranks, func(c *mpi.Comm) {
		c.SetChunk(s.Chunk)
		outs[c.Rank()], errs[c.Rank()] = onRank(ctx, c, mk, s)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs[0], nil
}

// approx is serial Approx-FIRAL over a prefetched block stream: while the
// solver kernels chew block k, block k+1 is already decoding. Cancelling
// ctx stops further read-ahead; the solver exits at its next ctx poll and
// the deferred Close drains whatever read is still in flight.
func approx(ctx context.Context, s Spec) (*Result, error) {
	swept := dataset.WithPrefetch(ctx, dataset.Subrange(s.Src, 0, s.Probs.Rows), s.BlockRows)
	defer swept.Close()
	pool := hessian.NewStream(swept, s.Probs, s.BlockRows)
	res, err := firal.SelectApprox(ctx, firal.NewProblem(s.Labeled, pool), s.Budget,
		firal.Options{Relax: s.Relax, Eta: s.Eta, Exclude: s.Exclude})
	if err != nil {
		return nil, err
	}
	return &Result{Selected: res.Selected, Eta: res.Eta,
		RelaxIterations: res.Relax.Iterations, CGIterations: res.Relax.CGIterations}, nil
}

// onRank is one rank's distributed RELAX → ROUND.
func onRank(ctx context.Context, c *mpi.Comm, mk distfiral.ShardMaker, s Spec) (*Result, error) {
	relax := s.Relax
	if relax.OnIteration != nil && c.Rank() != 0 {
		relax.OnIteration = func(*firal.RelaxCheckpoint) {}
	}
	if c.OpTimeout() > 0 {
		res, err := distfiral.SelectResilient(ctx, c, mk, s.Budget, s.Eta, relax, s.Exclude...)
		if err != nil {
			return nil, err
		}
		return &Result{Selected: res.Selected, Eta: res.Round.Eta,
			RelaxIterations: res.Relax.Iterations, CGIterations: res.Relax.CGIterations,
			LostRanks: res.LostRanks, Heals: len(res.ResumePoints), Rank: res.Rank, Size: res.Size}, nil
	}
	sh, err := mk(c.Size(), c.Rank())
	if err != nil {
		return nil, err
	}
	sel, rres, rd, err := distfiral.Select(ctx, c, sh, s.Budget, s.Eta, relax, s.Exclude...)
	if err != nil {
		return nil, err
	}
	return &Result{Selected: sel, Eta: rd.Eta,
		RelaxIterations: rres.Iterations, CGIterations: rres.CGIterations}, nil
}
