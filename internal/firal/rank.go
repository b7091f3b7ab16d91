package firal

import (
	"context"

	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/timing"
)

// Rank places a Problem on one rank of the distributed Approx-FIRAL of
// § III-C: the Problem's pool holds global rows [Offset, Offset+N) of a
// Total-row pool partitioned across Comm's ranks, while the labeled set,
// every ẽd-length vector and every O(cd²) block matrix are replicated.
//
// The RELAX and ROUND loops are written once against a Rank. Each
// collective step below does nothing when Comm is nil — the zero Rank is
// the serial solver — and is timed as "comm" otherwise. Every rank runs
// the same loop on replicated state, so all ranks enter the same
// collectives in the same order.
type Rank struct {
	Comm *mpi.Comm
	// Offset is the global index of the rank's first pool row.
	Offset int
	// Total is the global pool size.
	Total int
}

// total returns the global pool size for a local pool of n rows.
func (r Rank) total(n int) int {
	if r.Comm == nil {
		return n
	}
	return r.Total
}

// id returns the rank number (0 when serial).
func (r Rank) id() int {
	if r.Comm == nil {
		return 0
	}
	return r.Comm.Rank()
}

// blocks returns the rank's share [kLo, kHi) of c Fisher blocks, the
// eigenvalue sharding of Algorithm 3 line 9.
func (r Rank) blocks(c int) (int, int) {
	if r.Comm == nil {
		return 0, c
	}
	return mpi.Partition(c, r.Comm.Size(), r.Comm.Rank())
}

// cancelled is the once-per-iteration cancellation check. Serially it is
// ctx.Err(). On a rank it is SPMD-safe: rank 0 polls the context and
// broadcasts a one-float stop flag, so every rank leaves the collective
// schedule at the same iteration (checking ctx on each rank could let
// ranks stop at different iterations and deadlock inside a collective).
// A non-cancellable context skips the flag, so benchmarks measure the
// paper's communication pattern only.
func (r Rank) cancelled(ctx context.Context, ph *timing.Phases) error {
	if r.Comm == nil {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		return nil
	}
	flag := []float64{0}
	if r.Comm.Rank() == 0 && ctx.Err() != nil {
		flag[0] = 1
	}
	r.bcast(0, flag, ph)
	if flag[0] == 0 {
		return nil
	}
	// A rank can learn of the cancellation through the flag before its
	// own ctx reports it.
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// bcast broadcasts buf from root.
func (r Rank) bcast(root int, buf []float64, ph *timing.Phases) {
	if r.Comm == nil {
		return
	}
	stop := ph.Start("comm")
	r.Comm.Bcast(root, buf)
	stop()
}

// sum allreduces buf in place. The block-CG operators fold the whole
// probe block into one call, dividing the RELAX message count per CG
// iteration by s.
func (r Rank) sum(buf []float64, ph *timing.Phases) {
	if r.Comm == nil {
		return
	}
	stop := ph.Start("comm")
	r.Comm.Allreduce(buf, mpi.Sum)
	stop()
}

// reduce reduces one value across ranks.
func (r Rank) reduce(v float64, op mpi.Op, ph *timing.Phases) float64 {
	if r.Comm == nil {
		return v
	}
	stop := ph.Start("comm")
	v = r.Comm.AllreduceScalar(v, op)
	stop()
	return v
}

// sumBlocks sums d×d block partials across ranks in one allreduce of
// c·d² floats (§ III-C, Eq. 22 message size), packed through ws.
func (r Rank) sumBlocks(ws *mat.Workspace, blocks []*mat.Dense, ph *timing.Phases) {
	if r.Comm == nil || r.Comm.Size() == 1 {
		return
	}
	d := blocks[0].Rows
	buf := ws.Vec(len(blocks) * d * d)
	for k, b := range blocks {
		copy(buf[k*d*d:], b.Data[:d*d])
	}
	r.sum(buf, ph)
	for k, b := range blocks {
		copy(b.Data[:d*d], buf[k*d*d:])
	}
	ws.PutVec(buf)
}

// gather returns the rank-ordered concatenation of every rank's local
// slice; serially, local itself.
func (r Rank) gather(local []float64, ph *timing.Phases) []float64 {
	if r.Comm == nil {
		return local
	}
	stop := ph.Start("comm")
	all, _ := r.Comm.Allgatherv(local)
	stop()
	return all
}

// maxLoc returns the global maximum of v with its owner rank and the
// owner's local index loc (ties break toward the lower rank, then the
// lower index, so every rank agrees).
func (r Rank) maxLoc(v float64, loc int, ph *timing.Phases) (float64, int, int) {
	if r.Comm == nil {
		return v, 0, loc
	}
	stop := ph.Start("comm")
	v, owner, loc := r.Comm.AllreduceMaxLoc(v, loc)
	stop()
	return v, owner, loc
}
