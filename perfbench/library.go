package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	firal "repro"
	"repro/internal/dataset"
	"repro/internal/distfiral"
	solver "repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/logreg"
	"repro/internal/mat"
	"repro/internal/perfmodel"
	"repro/internal/softmax"
)

// libSpec describes a workload driven through firal.Learner: episodes of
// NewLearner + RunContext over one fixed generated dataset.
//
// The dataset is fixed (data seed 0), as the paper's Table V datasets
// are, and the run's seed becomes the Learner's seed, which draws every
// round's Rademacher probes. Round cost depends on the dataset through
// its CG iteration counts (0.21–0.41 s per RELAX iteration across data
// seeds for CIFAR-10-like data on a 2-CPU box), far more than a run can
// average out.
type libSpec struct {
	synth   firal.Synthetic
	rounds  int // rounds per episode
	budget  int // b
	probes  int // s, the solver's Rademacher probe count
	workers int // parallelism cap handed to RunContext; 0 = every core
	// maxRelax caps RELAX iterations for the registry's Approx-FIRAL.
	maxRelax int
	// ranks > 0 selects through Dist-FIRAL over that many TCP ranks with
	// relaxIters fixed RELAX iterations instead.
	ranks, relaxIters int
}

// tablev_cifar10: the CIFAR-10-like Table V config at paper scale,
// Approx-FIRAL from the registry at paper defaults (s = 10, CG tolerance
// 0.1) with RELAX capped at 15 iterations, b = 10 for Table V's 3
// rounds. Stopping on convergence took 27–59 iterations per round here,
// the count swinging with the probe draws, so the cap binds and every
// round does the same RELAX work.
var tablevSpec = libSpec{synth: firal.CIFAR10Like(), rounds: 3, budget: 10, probes: 10, maxRelax: 15}

// dist_tcp_imagenet50: ImageNet-50-like data scaled by 0.4 (pool 2000,
// c = 50, d = 50), two TCP ranks with one worker each, 3 fixed RELAX
// iterations and b = 50.
var distSpec = libSpec{synth: firal.ImageNet50Like().Scale(0.4), rounds: 3, budget: 50, probes: 10,
	workers: 1, ranks: 2, relaxIters: 3}

// generate returns the workload's dataset with the run's seed as the
// Learner seed.
func (s libSpec) generate(seed int64) firal.Config {
	cfg := s.synth.Generate(0)
	cfg.Seed = seed
	return cfg
}

func runTableV(ctx context.Context, rc runConfig, r *report) error {
	return runLibrary(ctx, rc, r, "tablev_cifar10", tablevSpec)
}

func runDist(ctx context.Context, rc runConfig, r *report) error {
	return runLibrary(ctx, rc, r, "dist_tcp_imagenet50", distSpec)
}

// setupTrials is how many times a run sets its workload up; setup_s is
// the median.
const setupTrials = 25

// libRun is the state a run's selectors and round observer share.
type libRun struct {
	spec    libSpec
	learner *firal.Learner // the current episode's learner
	ranks   *rankGroup

	// Traced episodes only.
	tr       *tracer
	log      *layerLog
	machine  perfmodel.Machine
	round    int // round id: episode·100 + round number
	parent   int // the round's span
	meter    []meterReading
	lastPool *hessian.Set // the last traced round's pool, for the kernel probes
}

// episode is what one NewLearner + RunContext produced.
type episode struct {
	walls     []float64 // per round: from the previous round's end (or RunContext) to the observer call
	reports   []*firal.RoundReport
	cpu, wall float64 // process CPU and wall seconds inside RunContext
}

func runLibrary(ctx context.Context, rc runConfig, r *report, name string, spec libSpec) error {
	lr := &libRun{spec: spec}
	defer func() { lr.ranks.close() }()

	// Set-up: generate the dataset, train the initial model, connect the
	// ranks.
	var cfg firal.Config
	var setups []float64
	for t := 0; t < setupTrials; t++ {
		lr.ranks.close() // the previous trial's ranks
		lr.ranks = nil
		t0 := time.Now()
		cfg = spec.generate(rc.seed)
		if _, err := firal.NewLearner(cfg); err != nil {
			return err
		}
		if spec.ranks > 0 {
			g, err := connectRanks(ctx, spec.ranks, false)
			if err != nil {
				return fmt.Errorf("connect ranks: %w", err)
			}
			lr.ranks = g
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Collect each trial's garbage outside the timings, so the peak
		// resident set does not depend on when the collector ran.
		runtime.GC()
	}

	if rc.trace {
		return lr.traced(ctx, rc, r, name, cfg)
	}

	// Episodes while the next one should end by the deadline, at least
	// one; final_accuracy is the first one's.
	deadline := rc.deadline(time.Now())
	var rounds, deltas []float64
	var lastEpisode time.Duration
	acc := 0.0
	for e := 0; e == 0 || time.Now().Add(lastEpisode).Before(deadline); e++ {
		ep, err := lr.episode(ctx, cfg, lr.selector())
		if !lr.check(r, cfg, ep, err, nil) {
			break
		}
		for i, w := range ep.walls {
			rounds = append(rounds, w)
			if i > 0 {
				deltas = append(deltas, w)
			}
		}
		if e == 0 {
			acc = ep.reports[len(ep.reports)-1].EvalAccuracy
		}
		lastEpisode = time.Duration(ep.wall * float64(time.Second))
	}
	r.setSample("setup_s", summarize(setups))
	r.setSample("round_s", summarize(rounds))
	r.setSample("delta_round_s", summarize(deltas))
	r.set("final_accuracy", acc)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mib", rss)
	return nil
}

// selector returns the untraced or traced selector of the workload.
func (lr *libRun) selector() firal.Selector {
	if lr.spec.ranks > 0 {
		return firal.SelectorFunc("Dist-FIRAL (TCP)", lr.distSelect)
	}
	if lr.tr == nil {
		sel, err := firal.New("approx-firal", firal.SelectorOptions{FIRAL: firal.FIRALOptions{MaxRelaxIterations: lr.spec.maxRelax}})
		if err != nil {
			panic(err) // the selector is built in; its absence is a bug
		}
		return sel
	}
	return firal.SelectorFunc("Approx-FIRAL (traced)", lr.tracedApprox)
}

// episode runs one NewLearner + RunContext over cfg and times each round
// from the round observer.
func (lr *libRun) episode(ctx context.Context, cfg firal.Config, sel firal.Selector) (*episode, error) {
	runtime.GC() // the previous episode's garbage, see runLibrary
	l, err := firal.NewLearner(cfg)
	if err != nil {
		return nil, err
	}
	lr.learner = l
	ep := &episode{}
	episodeID := lr.round/100 + 1
	lr.beginRound(episodeID*100 + 1)
	cpu0, start := cpuTime(), time.Now()
	last := start
	opts := []firal.RunOption{
		firal.WithRounds(lr.spec.rounds),
		firal.WithBudget(lr.spec.budget),
		firal.WithObserver(func(rep *firal.RoundReport) {
			now := time.Now()
			ep.walls = append(ep.walls, now.Sub(last).Seconds())
			ep.reports = append(ep.reports, rep)
			last = now
			lr.endRound(rep)
			if rep.Round < lr.spec.rounds {
				lr.beginRound(episodeID*100 + rep.Round + 1)
			}
		}),
	}
	if lr.spec.workers > 0 {
		opts = append(opts, firal.WithParallelism(lr.spec.workers))
	}
	_, err = l.RunContext(ctx, sel, opts...)
	ep.cpu, ep.wall = (cpuTime() - cpu0).Seconds(), time.Since(start).Seconds()
	return ep, err
}

func (lr *libRun) beginRound(id int) {
	lr.round = id
	lr.parent = lr.tr.begin("learner.round", 0, id, 0)
	if lr.tr != nil && lr.ranks != nil && lr.ranks.meters != nil {
		lr.meter = lr.meter[:0]
		for _, m := range lr.ranks.meters {
			lr.meter = append(lr.meter, m.read())
		}
	}
}

// endRound closes the round's span and logs the traffic each rank sent
// during the round: message and byte counts per rank, and the slowest
// rank's send and receive-wait time.
func (lr *libRun) endRound(rep *firal.RoundReport) {
	lr.tr.end(lr.parent)
	if lr.tr == nil {
		return
	}
	lr.log.put(lr.round, "logreg.train_s", rep.TrainSeconds)
	if lr.ranks == nil || lr.ranks.meters == nil {
		return
	}
	p := float64(len(lr.ranks.meters))
	var msgs, bytes float64
	for i, m := range lr.ranks.meters {
		now, then := m.read(), lr.meter[i]
		msgs += (now.messages - then.messages) / p
		bytes += (now.bytes - then.bytes) / p
		lr.log.put(lr.round, "mpi.send_s", now.send-then.send)
		lr.log.put(lr.round, "mpi.recv_wait_s", now.recv-then.recv)
	}
	lr.log.put(lr.round, "mpi.messages", msgs)
	lr.log.put(lr.round, "mpi.bytes", bytes)
}

// check validates every round of an episode and records it in r; with a
// reference episode, each round must also select what the reference's
// round selected. It reports whether the run may go on.
func (lr *libRun) check(r *report, cfg firal.Config, ep *episode, err error, ref *episode) bool {
	if ep == nil {
		r.round(err)
		return false
	}
	n := len(cfg.PoolX)
	taken := map[int]bool{}
	for i, rep := range ep.reports {
		want := min(lr.spec.budget, n-len(taken))
		cerr := checkSelection(rep.Selected, want, n, taken)
		if cerr == nil && !(rep.EvalAccuracy > 0) {
			cerr = fmt.Errorf("eval accuracy %v", rep.EvalAccuracy)
		}
		if cerr == nil && ref != nil && !slices.Equal(rep.Selected, ref.reports[i].Selected) {
			cerr = fmt.Errorf("traced selection %v, untraced %v", rep.Selected, ref.reports[i].Selected)
		}
		if cerr != nil {
			cerr = fmt.Errorf("%w: round %d: %v", errCheck, rep.Round, cerr)
		}
		r.round(cerr)
		for _, i := range rep.Selected {
			taken[i] = true
		}
	}
	if err != nil {
		r.round(err) // the round that errored
		return false
	}
	if len(ep.reports) != lr.spec.rounds {
		r.round(fmt.Errorf("%w: episode ran %d rounds, want %d", errCheck, len(ep.reports), lr.spec.rounds))
		return false
	}
	return true
}

// setsFromState rebuilds the labeled and pool Fisher sets the library's
// selectors see, from the State accessors and the learner's model.
func setsFromState(s *firal.State, l *firal.Learner) (labeled, pool *hessian.Set) {
	n, d, c := s.NumPool(), s.Dim(), s.Classes()
	x, h := mat.NewDense(n, d), mat.NewDense(n, c)
	for i := 0; i < n; i++ {
		copy(x.Row(i), s.PoolPoint(i))
		copy(h.Row(i), s.PoolProbabilities(i))
	}
	lab := make([][]float64, s.NumLabeled())
	for i := range lab {
		lab[i] = s.LabeledPoint(i)
	}
	labH := mat.FromRows(l.Model().Probabilities(lab))
	return hessian.NewSet(mat.FromRows(lab), hessian.ReduceProbs(labH)), hessian.NewSet(x, hessian.ReduceProbs(h))
}

// tracedApprox is the registry's Approx-FIRAL (firal.SelectApprox:
// RelaxFast, then RoundFast at the default η) with RELAX
// and ROUND called separately so each gets a span.
func (lr *libRun) tracedApprox(ctx context.Context, s *firal.State, b int) ([]int, error) {
	labeled, pool := setsFromState(s, lr.learner)
	p := solver.NewProblem(labeled, pool)
	id := lr.tr.begin("firal.relax", lr.parent, lr.round, 0)
	relax, err := solver.RelaxFast(ctx, p, b, solver.RelaxOptions{MaxIter: lr.spec.maxRelax, Seed: s.Seed()})
	lr.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = lr.tr.begin("firal.round", lr.parent, lr.round, 0)
	rd, err := solver.RoundFast(p, relax.Z, b, solver.RoundOptions{Eta: p.DefaultEta()})
	lr.tr.end(id)
	if err != nil {
		return nil, err
	}
	sh := shape{n: pool.N(), d: pool.D(), c: pool.C(), s: lr.spec.probes, p: 1, b: b}
	recordSolve(lr.log, lr.round, lr.machine, sh, relax.Iterations, relax.CGIterations, relax.Timings, rd.Timings)
	lr.lastPool = pool
	return rd.Selected, nil
}

// distSelect runs Dist-FIRAL on every rank of the TCP group at once and
// returns rank 0's selection after checking that all ranks agree.
func (lr *libRun) distSelect(ctx context.Context, s *firal.State, b int) ([]int, error) {
	labeled, pool := setsFromState(s, lr.learner)
	comms := lr.ranks.comms
	sels := make([][]int, len(comms))
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for rank := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sels[rank], errs[rank] = lr.selectOnRank(ctx, rank, labeled, pool, b, s.Seed())
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for rank := 1; rank < len(sels); rank++ {
		if !slices.Equal(sels[rank], sels[0]) {
			return nil, fmt.Errorf("%w: rank %d selected %v, rank 0 selected %v", errCheck, rank, sels[rank], sels[0])
		}
	}
	if lr.tr != nil {
		lr.lastPool = pool
	}
	return sels[0], nil
}

// selectOnRank is one rank's distfiral.Select; traced, it calls Relax and
// Round separately so each gets a span.
func (lr *libRun) selectOnRank(ctx context.Context, rank int, labeled, pool *hessian.Set, b int, seed int64) ([]int, error) {
	c := lr.ranks.comms[rank]
	sh := distfiral.MakeShard(labeled, pool, c.Size(), rank)
	opts := solver.RelaxOptions{FixedIterations: lr.spec.relaxIters, Probes: lr.spec.probes, Seed: seed}
	if lr.tr == nil {
		sel, _, _, err := distfiral.Select(ctx, c, sh, b, 0, opts)
		return sel, err
	}
	id := lr.tr.begin("firal.relax", lr.parent, lr.round, rank)
	relax, err := distfiral.Relax(ctx, c, sh, b, opts)
	lr.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = lr.tr.begin("firal.round", lr.parent, lr.round, rank)
	rd, err := distfiral.Round(ctx, c, sh, relax.ZLocal, b, 0)
	lr.tr.end(id)
	if err != nil {
		return nil, err
	}
	shp := shape{n: pool.N(), d: pool.D(), c: pool.C(), s: lr.spec.probes, p: c.Size(), b: b}
	recordSolve(lr.log, lr.round, lr.machine, shp, relax.Iterations, relax.CGIterations, relax.Timings, rd.Timings)
	return rd.Selected, nil
}

// traced is a traced run: one untraced episode as the reference, the
// same episode again with spans, then the kernel probes at the workload's
// shape. The traced selections must equal the reference ones.
func (lr *libRun) traced(ctx context.Context, rc runConfig, r *report, name string, cfg firal.Config) error {
	ref, err := lr.episode(ctx, cfg, lr.selector())
	if !lr.check(r, cfg, ref, err, nil) {
		return nil
	}

	gemm := gemmGflops()
	lr.tr, lr.log, lr.machine = newTracer(), newLayerLog(), perfmodel.Host(gemm*1e9)
	if lr.spec.ranks > 0 {
		g, err := connectRanks(ctx, lr.spec.ranks, true)
		if err != nil {
			return fmt.Errorf("connect metered ranks: %w", err)
		}
		lr.ranks.close()
		lr.ranks = g
	}
	traced, err := lr.episode(ctx, cfg, lr.selector())
	if !lr.check(r, cfg, traced, err, ref) {
		return writeSpans(rc, name, lr.tr)
	}

	reportSolver(r, lr.tr.snapshot(), lr.log)
	for _, n := range []string{"logreg.train_s", "mpi.messages", "mpi.bytes", "mpi.send_s", "mpi.recv_wait_s"} {
		r.setSample(n, summarize(values(lr.log.byRound(n))))
	}
	r.set("parallel.cpu_util", ref.cpu/(ref.wall*float64(runtime.NumCPU())))
	r.set("trace.overhead", median(traced.walls)/median(ref.walls)-1)

	// Kernel probes at the last round's shape.
	pool := lr.lastPool
	r.set("mat.gemm_gflops", gemm)
	r.set("mat.multransa_thin_gflops", mulTransAThinGflops(min(pool.N(), dataset.DefaultBlockRows), pool.C(), pool.D()))
	mv, mvGflops, quad := blockProbe(pool, lr.spec.probes, 5)
	r.set("hessian.matvec_block_s", mv)
	r.set("hessian.matvec_block_gflops", mvGflops)
	r.set("hessian.quad_accum_block_s", quad)
	model, err := logreg.Train(mat.FromRows(cfg.LabeledX), cfg.LabeledY, cfg.Classes, nil, logreg.Options{})
	if err != nil {
		return err
	}
	probs := mat.NewDense(pool.N(), cfg.Classes)
	r.set("softmax.probs_s", timeMedian(5, 100*time.Millisecond, func() { softmax.Probabilities(probs, pool.X, model.Theta) }))
	if lr.spec.ranks > 0 {
		words := lr.spec.probes * pool.Ed()
		r.set("mpi.allreduce_s", allreduceSeconds(lr.ranks.comms, words, 20))
	}
	return writeSpans(rc, name, lr.tr)
}
