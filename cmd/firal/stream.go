package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	pub "repro"
	"repro/internal/csvdata"
	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/logreg"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/round"
	"repro/internal/softmax"
)

// packShard converts a numeric CSV into the float32 shard format, block
// by block — the one-time step that makes a pool cheap to re-score.
func packShard(out, csvPath string, labelCol int) error {
	if csvPath == "" {
		return fmt.Errorf("-pack needs -pool pointing at the CSV to convert")
	}
	src, err := dataset.NewCSVSource(csvPath, labelCol)
	if err != nil {
		return err
	}
	defer src.Close()
	w, err := dataset.CreateShard(out, src.Dim())
	if err != nil {
		return err
	}
	block := mat.NewDense(dataset.DefaultBlockRows, src.Dim())
	for lo := 0; lo < src.NumRows(); lo += block.Rows {
		hi := min(lo+block.Rows, src.NumRows())
		b := block.RowSlice(0, hi-lo)
		if err := src.ReadRows(lo, hi, b); err != nil {
			return err
		}
		if err := w.AppendBlock(b); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	log.Printf("packed %d×%d rows of %s into %s (features only; labels are not stored)",
		src.NumRows(), src.Dim(), csvPath, out)
	return nil
}

// streamConfig carries the flag subset of the streaming selection mode.
type streamConfig struct {
	shards     []string
	labeled    string
	labelCol   int
	selector   string
	ranks      int
	budget     int
	block      int
	seed       int64
	probes     int
	cgtol      float64
	relaxIters int
	workers    int

	// Real-network mode (-transport tcp): this process is rank `rank` of
	// a `ranks`-wide world bootstrapped through the `peers` rendezvous.
	transport string
	rank      int
	peers     string
	chunk     int
	opTimeout time.Duration
	killAfter int
}

// streamSelect runs one Approx-FIRAL batch selection over a pool served
// from shard files: train on the labeled CSV, stream the pool once to
// compute the classifier probabilities (the only resident per-point
// state, O(n·c)), then select through the shared streamed round pipeline
// (internal/round) and return the chosen global row indices.
//
// Cost shape: ROUND streams one decode sweep per rescoring pass, and
// RELAX — via block CG over the probe block — one decode sweep per CG
// iteration plus a handful per mirror-descent iteration, independent of
// -probes. Use -select dist-firal to additionally have each rank decode
// only its own slice.
func streamSelect(cfg streamConfig) ([]int, error) {
	// Resolve through the selector registry so aliases ("firal", "dist",
	// …) work here exactly as in the resident path, and unknown names get
	// the same actionable listing.
	name, known := pub.CanonicalName(cfg.selector)
	if !known {
		return nil, fmt.Errorf("unknown selector %q (registered: %s)",
			cfg.selector, strings.Join(pub.Names(), ", "))
	}
	switch name {
	case "Exact-FIRAL":
		// Surface the solver's own typed error: Algorithm 1 assembles
		// dense pool Hessians, which requires a resident pool, and a
		// shard-backed pool is exactly the one that doesn't fit.
		return nil, fmt.Errorf("-select %s over -shards: %w", cfg.selector, firal.ErrResidentPool)
	case "Approx-FIRAL", "Dist-FIRAL":
	default:
		return nil, fmt.Errorf("streaming selection supports -select approx-firal or dist-firal, not %s", name)
	}
	if cfg.labeled == "" {
		return nil, fmt.Errorf("streaming selection needs -labeled (the classifier trains on it)")
	}
	if cfg.workers > 0 {
		lim := parallel.AcquireLimit(cfg.workers)
		defer lim.Release()
	}

	labX, labY, err := csvdata.Load(cfg.labeled, cfg.labelCol)
	if err != nil {
		return nil, fmt.Errorf("labeled: %w", err)
	}
	classes := csvdata.NumClasses(labY)
	if classes < 2 {
		return nil, fmt.Errorf("labeled set has %d class(es); need at least 2", classes)
	}
	labM := mat.FromRows(labX)
	model, err := logreg.Train(labM, labY, classes, nil, logreg.Options{})
	if err != nil {
		return nil, err
	}

	src, err := dataset.OpenShards(cfg.shards...)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if src.Dim() != labM.Cols {
		return nil, fmt.Errorf("shard dimension %d does not match labeled dimension %d", src.Dim(), labM.Cols)
	}
	n := src.NumRows()
	log.Printf("pool: %d × %d from %d shard(s), %d classes", n, src.Dim(), len(cfg.shards), classes)

	t0 := time.Now()
	reduced := mat.NewDense(n, classes-1)
	if err := round.Probs(reduced, src, model.Theta, cfg.block, 0, n); err != nil {
		return nil, err
	}
	log.Printf("probabilities attached in %.2fs", time.Since(t0).Seconds())

	ctx, cancel := interruptContext()
	defer cancel()
	spec := round.Spec{
		Labeled: hessian.NewSet(labM, hessian.ReduceProbs(softmax.Probabilities(nil, labM, model.Theta))),
		Src:     src, Probs: reduced, BlockRows: cfg.block, Budget: cfg.budget,
		Relax: firal.RelaxOptions{Probes: cfg.probes, CGTol: cfg.cgtol, MaxIter: cfg.relaxIters, Seed: cfg.seed},
	}
	switch {
	case name == "Dist-FIRAL" && cfg.transport == "tcp":
		c, tr, err := tcpComm(ctx, cfg)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		spec.Comm = c
	case name == "Dist-FIRAL":
		spec.Ranks, spec.Chunk = max(cfg.ranks, 1), cfg.chunk
	}
	t0 = time.Now()
	res, err := round.Select(ctx, spec)
	if err != nil {
		return nil, err
	}
	if len(res.LostRanks) > 0 {
		log.Printf("rank %d/%d: recovered from lost rank(s) %v after %d heal(s)",
			res.Rank, res.Size, res.LostRanks, res.Heals)
	}
	log.Printf("selected %d of %d points in %.2fs", len(res.Selected), n, time.Since(t0).Seconds())
	return res.Selected, nil
}

// tcpComm makes this process one rank of a real-network distributed
// selection: bootstrap through the rendezvous address (rank 0 listens,
// everyone else dials). The pipeline then runs the same distfiral solve
// as the in-process path — selections are bit-identical by construction.
// With -op-timeout set the run is resilient: a crashed rank is detected
// by deadline, the survivors agree on the dead set, re-shard the pool,
// and resume from the last global checkpoint. The caller closes the
// returned transport.
func tcpComm(ctx context.Context, cfg streamConfig) (*mpi.Comm, mpi.Transport, error) {
	if cfg.peers == "" {
		return nil, nil, fmt.Errorf("-transport tcp needs -peers host:port (the rendezvous address)")
	}
	if cfg.rank < 0 || cfg.rank >= cfg.ranks {
		return nil, nil, fmt.Errorf("-rank %d outside the %d-rank world", cfg.rank, cfg.ranks)
	}
	bctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	log.Printf("rank %d/%d: bootstrapping via %s", cfg.rank, cfg.ranks, cfg.peers)
	tr, err := mpi.ConnectTCP(bctx, cfg.peers, cfg.rank, cfg.ranks)
	if err != nil {
		return nil, nil, fmt.Errorf("tcp bootstrap: %w", err)
	}
	if cfg.killAfter > 0 {
		tr = &killTransport{Transport: tr, after: cfg.killAfter}
	}
	c := mpi.NewComm(tr)
	c.SetChunk(cfg.chunk)
	c.SetOpTimeout(cfg.opTimeout)
	return c, tr, nil
}

// killTransport is the -kill-after test hook: it crash-stops the process
// (os.Exit, no cleanup — exactly what a killed rank looks like to its
// peers) once its endpoint has participated in the configured number of
// collective steps. Collective tags are negative and change per step, so
// counting distinct ones counts collectives.
type killTransport struct {
	mpi.Transport
	mu      sync.Mutex
	after   int
	seen    int
	lastTag int
}

func (k *killTransport) step(tag int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if tag < 0 && tag != k.lastTag {
		k.lastTag = tag
		k.seen++
	}
	if k.seen > k.after {
		log.Printf("rank %d: -kill-after %d reached, crashing", k.Transport.Rank(), k.after)
		os.Exit(3)
	}
}

func (k *killTransport) Send(dst, tag int, data []float64, deadline time.Time) error {
	k.step(tag)
	return k.Transport.Send(dst, tag, data, deadline)
}

func (k *killTransport) Recv(src, tag int, deadline time.Time) ([]float64, error) {
	k.step(tag)
	return k.Transport.Recv(src, tag, deadline)
}
