package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	solver "repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/logreg"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/rnd"
	"repro/internal/server"
	"repro/internal/softmax"
)

// servedSpec is the served_stream_append workload: an in-process firald
// (server.New + Handler on a loopback listener) over float32 shard files,
// driven by one closed-loop HTTP client.
type servedSpec struct {
	rows, dim, classes int // base pool
	shards             int // files the base pool is split into
	appendRows         int // rows of the appended shard (1% of the pool)
	labels             int // seed labels, uploaded by value
	evalRows           int // client-side eval set for final_accuracy
	budget             int
	fixedRelax         int // fixed_relax_iters of the session
	workers            int // workers of the session
	probes             int // the solver's default s
}

var servedWorkload = servedSpec{
	rows: 600_000, dim: 64, classes: 2, shards: 2, appendRows: 6_000, labels: 100,
	evalRows: 20_000, budget: 5, fixedRelax: 1, workers: 2, probes: 10,
}

// servedSetupTrials is how many times a run sets the workload up; the
// median is setup_s.
const servedSetupTrials = 3

// pollEvery is the client's round-status polling interval.
const pollEvery = 5 * time.Millisecond

// servedData generates the workload's rows. Every row is a class mean plus
// isotropic noise; pool row i (base or appended) has class i mod classes,
// so the client knows the label of any index it selects.
type servedData struct {
	spec  servedSpec
	means *mat.Dense
	sigma float64
}

func newServedData(spec servedSpec, rng *rnd.Source) *servedData {
	g := &servedData{spec: spec, means: mat.NewDense(spec.classes, spec.dim)}
	for k := 0; k < spec.classes; k++ {
		rng.UnitVector(g.means.Row(k))
		mat.Scal(1.4, g.means.Row(k))
	}
	// Noise wide enough that the client's classifier is right about nine
	// times in ten, not always.
	g.sigma = 0.6
	return g
}

// fill writes rows [lo, lo+x.Rows) of the index space into x.
func (g *servedData) fill(rng *rnd.Source, x *mat.Dense, lo int) {
	rng.Normal(x.Data, 0, g.sigma)
	for i := 0; i < x.Rows; i++ {
		mat.Axpy(1, g.means.Row((lo+i)%g.spec.classes), x.Row(i))
	}
}

// writeShard writes rows [lo, hi) to a shard file at path.
func (g *servedData) writeShard(rng *rnd.Source, path string, lo, hi int) error {
	w, err := dataset.CreateShard(path, g.spec.dim)
	if err != nil {
		return err
	}
	block := mat.NewDense(dataset.DefaultBlockRows, g.spec.dim)
	for blo := lo; blo < hi; blo += block.Rows {
		b := block.RowSlice(0, min(block.Rows, hi-blo))
		g.fill(rng, b, blo)
		if err := w.AppendBlock(b); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// servedFiles are one set-up's inputs.
type servedFiles struct {
	base       []string
	appendPath string
	labX       [][]float64
	labY       []int
}

// generateServed writes the base shards and the append shard under dir
// and draws the seed labels, all from seed.
func generateServed(spec servedSpec, seed int64, dir string) (*servedFiles, *servedData, error) {
	rng := rnd.New(seed)
	g := newServedData(spec, rng)
	f := &servedFiles{}
	for k := 0; k < spec.shards; k++ {
		path := filepath.Join(dir, fmt.Sprintf("pool-%d.shard", k))
		lo, hi := k*spec.rows/spec.shards, (k+1)*spec.rows/spec.shards
		if err := g.writeShard(rng, path, lo, hi); err != nil {
			return nil, nil, err
		}
		f.base = append(f.base, path)
	}
	f.appendPath = filepath.Join(dir, "append.shard")
	if err := g.writeShard(rng, f.appendPath, spec.rows, spec.rows+spec.appendRows); err != nil {
		return nil, nil, err
	}
	lab := mat.NewDense(spec.labels, spec.dim)
	g.fill(rng, lab, 0)
	for i := 0; i < spec.labels; i++ {
		f.labX = append(f.labX, append([]float64(nil), lab.Row(i)...))
		f.labY = append(f.labY, i%spec.classes)
	}
	return f, g, nil
}

// syncFiles flushes each file's pages to disk.
func syncFiles(paths []string) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("sync %s: %w", p, err)
		}
	}
	return nil
}

// daemon is an in-process firald: a server.Server behind its HTTP
// handler on a loopback listener, and the one client that drives it.
type daemon struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	dataDir string
}

func startDaemon(dataDir string) (*daemon, error) {
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2}},
		dataDir: dataDir,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// call sends a JSON request and decodes a JSON reply into out, failing on
// any status other than want.
func (d *daemon) call(ctx context.Context, method, path string, body, out any, want int) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// createSession registers the base shards with the seed labels and
// returns the session id.
func (d *daemon) createSession(ctx context.Context, spec servedSpec, f *servedFiles, seed int64) (string, error) {
	body := map[string]any{
		"shards":            f.base,
		"labeled":           map[string]any{"x": f.labX, "y": f.labY},
		"classes":           spec.classes,
		"seed":              seed,
		"selector":          "approx-firal",
		"fixed_relax_iters": spec.fixedRelax,
		"workers":           spec.workers,
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := d.call(ctx, http.MethodPost, "/v1/sessions", body, &view, http.StatusCreated); err != nil {
		return "", err
	}
	return view.ID, nil
}

// roundTiming is what the client observed of one round over HTTP.
type roundTiming struct {
	selected  []int
	wall      float64 // POST …/rounds until the selection was read
	queueWait float64 // POST until status running
	relax     float64 // running until relax_done (train + probability sweep + RELAX)
	round     float64 // relax_done until done
	meta      roundMeta
}

type roundMeta struct {
	Status          string  `json:"status"`
	Error           string  `json:"error"`
	RelaxIterations int     `json:"relax_iterations"`
	SelectSeconds   float64 `json:"select_seconds"`
	TrainSeconds    float64 `json:"train_seconds"`
	RelaxDone       bool    `json:"relax_done"`
}

// runRound starts a round, polls its status until it is done, and reads
// the selection.
func (d *daemon) runRound(ctx context.Context, id string, budget int) (*roundTiming, error) {
	t0 := time.Now()
	var started struct {
		Round  int    `json:"round"`
		Status string `json:"status"`
	}
	if err := d.call(ctx, http.MethodPost, "/v1/sessions/"+id+"/rounds", map[string]int{"budget": budget}, &started, http.StatusAccepted); err != nil {
		return nil, err
	}
	var running, relaxDone time.Time
	if started.Status == server.RoundRunning {
		running = time.Now()
	}
	path := fmt.Sprintf("/v1/sessions/%s/rounds/%d", id, started.Round)
	var meta roundMeta
	for {
		if err := d.call(ctx, http.MethodGet, path, nil, &meta, http.StatusOK); err != nil {
			return nil, err
		}
		now := time.Now()
		if meta.Status != server.RoundQueued && running.IsZero() {
			running = now
		}
		if (meta.RelaxDone || meta.Status == server.RoundDone) && relaxDone.IsZero() {
			relaxDone = now
		}
		if meta.Status == server.RoundDone {
			break
		}
		if meta.Status == server.RoundFailed || meta.Status == server.RoundInterrupted {
			return nil, fmt.Errorf("round %d %s: %s", started.Round, meta.Status, meta.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollEvery):
		}
	}
	var sel struct {
		Selected []int `json:"selected"`
	}
	if err := d.call(ctx, http.MethodGet, path+"/selected", nil, &sel, http.StatusOK); err != nil {
		return nil, err
	}
	end := time.Now()
	return &roundTiming{
		selected:  sel.Selected,
		wall:      end.Sub(t0).Seconds(),
		queueWait: running.Sub(t0).Seconds(),
		relax:     relaxDone.Sub(running).Seconds(),
		round:     end.Sub(relaxDone).Seconds(),
		meta:      meta,
	}, nil
}

// servedEpisode is one session's round → 1% append → round.
type servedEpisode struct {
	first, next *roundTiming
	appendSec   float64 // the append POST alone
	delta       float64 // append POST until the next round's selection was read
	cpu, wall   float64 // process CPU and wall seconds over the episode
}

// episode runs a round, the 1% append and, with second set, the next
// round on session id, checking each selection and recording each round
// in r. It reports whether the run may go on.
func (d *daemon) episode(ctx context.Context, spec servedSpec, f *servedFiles, id string, second bool, r *report) (*servedEpisode, bool) {
	ep := &servedEpisode{}
	cpu0, t0 := cpuTime(), time.Now()
	defer func() { ep.cpu, ep.wall = (cpuTime() - cpu0).Seconds(), time.Since(t0).Seconds() }()

	var err error
	if ep.first, err = d.runRound(ctx, id, spec.budget); err != nil {
		r.round(err)
		return ep, false
	}
	taken := map[int]bool{}
	if err := checkSelection(ep.first.selected, spec.budget, spec.rows, taken); err != nil {
		r.round(fmt.Errorf("%w: round 1: %v", errCheck, err))
		return ep, false
	}
	r.round(nil)
	for _, i := range ep.first.selected {
		taken[i] = true
	}

	ta := time.Now()
	var grown struct {
		Rows int `json:"rows"`
	}
	err = d.call(ctx, http.MethodPost, "/v1/sessions/"+id+"/pool", map[string]any{"shards": []string{f.appendPath}}, &grown, http.StatusOK)
	ep.appendSec = time.Since(ta).Seconds()
	if err == nil && grown.Rows != spec.rows+spec.appendRows {
		err = fmt.Errorf("%w: pool has %d rows after the append, want %d", errCheck, grown.Rows, spec.rows+spec.appendRows)
	}
	if err == nil && !second {
		return ep, true
	}
	if err == nil {
		ep.next, err = d.runRound(ctx, id, spec.budget)
	}
	if err == nil {
		err = checkSelection(ep.next.selected, spec.budget, spec.rows+spec.appendRows, taken)
		if err != nil {
			err = fmt.Errorf("%w: round 2: %v", errCheck, err)
		}
	}
	r.round(err)
	ep.delta = time.Since(ta).Seconds()
	return ep, err == nil
}

// finalAccuracy trains the client's classifier on the seed labels plus
// the rows it was asked to label (their class is known from the index)
// and scores it on the eval set.
func finalAccuracy(spec servedSpec, f *servedFiles, g *servedData, rng *rnd.Source, selected []int) (float64, error) {
	src, err := dataset.OpenShards(append(slices.Clone(f.base), f.appendPath)...)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	x := mat.NewDense(len(f.labX)+len(selected), spec.dim)
	y := slices.Clone(f.labY)
	for i, row := range f.labX {
		copy(x.Row(i), row)
	}
	for k, i := range selected {
		row := len(f.labX) + k
		if err := src.ReadRows(i, i+1, x.RowSlice(row, row+1)); err != nil {
			return 0, err
		}
		y = append(y, i%spec.classes)
	}
	model, err := logreg.Train(x, y, spec.classes, nil, logreg.Options{})
	if err != nil {
		return 0, err
	}
	ex := mat.NewDense(spec.evalRows, spec.dim)
	g.fill(rng, ex, 0)
	ey := make([]int, spec.evalRows)
	for i := range ey {
		ey[i] = i % spec.classes
	}
	return model.Accuracy(ex, ey), nil
}

func runServed(ctx context.Context, rc runConfig, r *report) error {
	spec := servedWorkload
	root := filepath.Join(rc.out, "served")
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Set-up: generate and pack the shards, start the daemon, create the
	// session. Each trial starts from nothing; the last one is kept.
	var (
		files           *servedFiles
		gen             *servedData
		d               *daemon
		sessionID       string
		setups, creates []float64
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for t := 0; t < servedSetupTrials; t++ {
		if d != nil {
			d.stop()
			d = nil
		}
		dir := filepath.Join(root, "setup")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		var err error
		if files, gen, err = generateServed(spec, rc.seed, dir); err != nil {
			return fmt.Errorf("pack shards: %w", err)
		}
		if d, err = startDaemon(filepath.Join(dir, "data")); err != nil {
			return err
		}
		tc := time.Now()
		if sessionID, err = d.createSession(ctx, spec, files, rc.seed); err != nil {
			return err
		}
		creates = append(creates, time.Since(tc).Seconds())
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC() // see runLibrary
	}

	// Flush the shards now, so that write-back of the freshly packed pages
	// does not compete with the rounds.
	if err := syncFiles(append(slices.Clone(files.base), files.appendPath)); err != nil {
		return err
	}

	if rc.trace {
		return tracedServed(ctx, rc, r, spec, d, files, sessionID, creates)
	}

	// Episodes while the next one should end by the deadline, at least
	// one, each on a fresh session over the same shards (the first one on
	// the set-up's session).
	deadline := rc.deadline(time.Now())
	var rounds, deltas []float64
	var first *servedEpisode
	var lastEpisode time.Duration
	for e := 0; e == 0 || time.Now().Add(lastEpisode).Before(deadline); e++ {
		id := sessionID
		if e > 0 {
			var err error
			if id, err = d.createSession(ctx, spec, files, rc.seed); err != nil {
				return err
			}
		}
		ep, ok := d.episode(ctx, spec, files, id, true, r)
		if !ok {
			break
		}
		if first == nil {
			first = ep
		}
		rounds = append(rounds, ep.first.wall, ep.next.wall)
		deltas = append(deltas, ep.delta)
		lastEpisode = time.Duration(ep.wall * float64(time.Second))
	}
	r.setSample("setup_s", summarize(setups))
	r.setSample("round_s", summarize(rounds))
	r.setSample("delta_round_s", summarize(deltas))
	if first != nil {
		acc, err := finalAccuracy(spec, files, gen, rnd.New(rnd.Split(rc.seed, 1)), append(slices.Clone(first.first.selected), first.next.selected...))
		if err != nil {
			return err
		}
		r.set("final_accuracy", acc)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mib", rss)
	return nil
}

// tracedServed is the served workload's traced run. It runs the first
// round and the append of an untraced episode over HTTP, observing the
// server's phases from the status it polls. Then it repeats the first
// round in-process, calling the layers the daemon's round calls (train,
// probability sweep, RELAX, ROUND over a prefetched shard stream) with a
// span around each and the pool read through counting and timing
// decorators. The repeat must select what the daemon selected.
func tracedServed(ctx context.Context, rc runConfig, r *report, spec servedSpec, d *daemon, f *servedFiles, id string, creates []float64) error {
	ep, ok := d.episode(ctx, spec, f, id, false, r)
	if !ok {
		return nil
	}
	first := ep.first
	r.setSample("server.create_s", summarize(creates))
	r.set("server.append_s", ep.appendSec)
	r.set("server.queue_wait_s", first.queueWait)
	r.set("server.relax_phase_s", first.relax)
	r.set("server.round_phase_s", first.round)
	r.set("server.select_s", first.meta.SelectSeconds)
	r.set("server.train_s", first.meta.TrainSeconds)
	// Computed: with checkpoints every iteration a round writes round.ckpt
	// once per RELAX iteration and once more when RELAX is done, plus
	// warm.ckpt once; all have the size of the warm checkpoint on disk.
	st, err := os.Stat(filepath.Join(d.dataDir, id, "warm.ckpt"))
	if err != nil {
		return err
	}
	r.set("server.checkpoint_bytes", float64(st.Size())*float64(first.meta.RelaxIterations+2))
	r.set("parallel.cpu_util", ep.cpu/(ep.wall*float64(runtime.NumCPU())))

	gemm := gemmGflops()
	r.set("mat.gemm_gflops", gemm)
	tr, log := newTracer(), newLayerLog()
	rep, err := replicaRound(ctx, spec, f, rc.seed, tr, log, perfmodel.Host(gemm*1e9))
	if err == nil && !slices.Equal(rep.selected, first.selected) {
		err = fmt.Errorf("%w: traced round selected %v, the daemon %v", errCheck, rep.selected, first.selected)
	}
	r.round(err)
	if err != nil {
		return writeSpans(rc, "served_stream_append", tr)
	}
	spans := tr.snapshot()
	reportSolver(r, spans, log)
	self := selfTimes(spans)
	r.set("logreg.train_s", median(values(perRound(spans, self, "logreg.train"))))
	r.set("softmax.probs_s", median(values(perRound(spans, self, "softmax.probs"))))
	r.set("trace.overhead", rep.wall/first.wall-1)
	r.set("dataset.sweeps", rep.sweeps)
	r.set("dataset.rows_read", rep.rowsRead)
	r.set("dataset.decode_s", rep.decode)
	r.set("dataset.lend_wait_s", rep.lendWait)
	r.set("dataset.prefetch_hit_ratio", ratio(rep.hits, rep.hits+rep.misses))
	r.set("dataset.decode_gbps", ratio(rep.rowsRead*float64(spec.dim)*4, rep.decode)/1e9)

	// Kernel probes at the workload's shape, over a fresh prefetched
	// stream of the base shards (one call each: every call sweeps them).
	src, err := dataset.OpenShards(f.base...)
	if err != nil {
		return err
	}
	pf := dataset.NewPrefetchSource(ctx, src, 0)
	defer pf.Close()
	stream := hessian.NewStream(pf, rep.probs, 0)
	mv, mvGflops, quad := blockProbe(stream, spec.probes, 1)
	r.set("hessian.matvec_block_s", mv)
	r.set("hessian.matvec_block_gflops", mvGflops)
	r.set("hessian.quad_accum_block_s", quad)
	r.set("mat.multransa_thin_gflops", mulTransAThinGflops(dataset.DefaultBlockRows, spec.classes-1, spec.dim))
	return writeSpans(rc, "served_stream_append", tr)
}

// replica is what the in-process repeat of the daemon's first round saw.
type replica struct {
	selected         []int
	probs            *mat.Dense // reduced probabilities, n×(c−1)
	wall             float64
	sweeps, rowsRead float64
	decode, lendWait float64 // seconds
	hits, misses     float64
}

// replicaRound repeats the daemon's first Approx-FIRAL round (see
// internal/server selectOnce): train on the seed labels, one probability
// sweep, then RELAX and ROUND over the prefetched stream, with the same
// per-round seed, options and worker limit.
func replicaRound(ctx context.Context, spec servedSpec, f *servedFiles, seed int64, tr *tracer, log *layerLog, m perfmodel.Machine) (*replica, error) {
	const round = 1
	lim := parallel.AcquireLimit(spec.workers)
	defer lim.Release()
	src, err := dataset.OpenShards(f.base...)
	if err != nil {
		return nil, err
	}
	decode := &timedSource{PoolSource: src}
	counted := dataset.NewCountingSource(decode)
	pf := &lendTimer{PrefetchSource: dataset.NewPrefetchSource(ctx, counted, 0)}
	defer pf.Close()

	t0 := time.Now()
	root := tr.begin("server.round", 0, round, 0)
	labM := mat.FromRows(f.labX)
	id := tr.begin("logreg.train", root, round, 0)
	model, err := logreg.Train(labM, f.labY, spec.classes, nil, logreg.Options{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("softmax.probs", root, round, 0)
	reduced, err := sweepProbs(counted, model, spec.classes)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	labeled := hessian.NewSet(labM, hessian.ReduceProbs(softmax.Probabilities(nil, labM, model.Theta)))
	p := solver.NewProblem(labeled, hessian.NewStream(pf, reduced, 0))
	// The daemon seeds round r of a session seeded s with s + r·7919.
	opts := solver.RelaxOptions{FixedIterations: spec.fixedRelax, Seed: seed + round*7919}
	id = tr.begin("firal.relax", root, round, 0)
	relax, err := solver.RelaxFast(ctx, p, spec.budget, opts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("firal.round", root, round, 0)
	rd, err := solver.RoundFast(p, relax.Z, spec.budget, solver.RoundOptions{Eta: p.DefaultEta()})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	wall := time.Since(t0).Seconds()

	sh := shape{n: p.N(), d: p.D(), c: p.C(), s: spec.probes, p: 1, b: spec.budget}
	recordSolve(log, round, m, sh, relax.Iterations, relax.CGIterations, relax.Timings, rd.Timings)
	hits, misses := pf.Stats()
	return &replica{
		selected: rd.Selected,
		probs:    reduced,
		wall:     wall,
		sweeps:   counted.Sweeps(),
		rowsRead: float64(counted.RowsRead()),
		decode:   time.Duration(decode.busyNs.Load()).Seconds(),
		lendWait: time.Duration(pf.waitNs.Load()).Seconds(),
		hits:     float64(hits),
		misses:   float64(misses),
	}, nil
}

// sweepProbs is the daemon's probability pass: read the pool block by
// block, apply the model, keep the reduced (first c−1) columns.
func sweepProbs(src dataset.PoolSource, model *logreg.Model, classes int) (*mat.Dense, error) {
	n := src.NumRows()
	out := mat.NewDense(n, classes-1)
	block := mat.NewDense(min(dataset.DefaultBlockRows, n), src.Dim())
	probs := mat.NewDense(block.Rows, classes)
	for lo := 0; lo < n; lo += block.Rows {
		hi := min(lo+block.Rows, n)
		xb := block.RowSlice(0, hi-lo)
		if err := src.ReadRows(lo, hi, xb); err != nil {
			return nil, err
		}
		pb := softmax.Probabilities(probs.RowSlice(0, hi-lo), xb, model.Theta)
		for i := lo; i < hi; i++ {
			copy(out.Row(i), pb.Row(i - lo)[:classes-1])
		}
	}
	return out, nil
}

// timedSource adds up the time spent in the wrapped source's ReadRows —
// the shard decode, which the prefetcher runs on its reader goroutine.
type timedSource struct {
	dataset.PoolSource
	busyNs atomic.Int64
}

func (s *timedSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	t0 := time.Now()
	err := s.PoolSource.ReadRows(lo, hi, dst)
	s.busyNs.Add(int64(time.Since(t0)))
	return err
}

// lendTimer adds up the time the consumer is blocked in the prefetcher:
// in LendBlock (the zero-copy path hessian.Stream takes) and ReadRows.
type lendTimer struct {
	*dataset.PrefetchSource
	waitNs atomic.Int64
}

func (l *lendTimer) LendBlock(lo, hi int) (*mat.Dense, error) {
	t0 := time.Now()
	b, err := l.PrefetchSource.LendBlock(lo, hi)
	l.waitNs.Add(int64(time.Since(t0)))
	return b, err
}

func (l *lendTimer) ReadRows(lo, hi int, dst *mat.Dense) error {
	t0 := time.Now()
	err := l.PrefetchSource.ReadRows(lo, hi, dst)
	l.waitNs.Add(int64(time.Since(t0)))
	return err
}
