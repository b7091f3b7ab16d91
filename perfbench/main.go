// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the surfaces users call — the Learner library API,
// Dist-FIRAL over TCP ranks, or firald's HTTP API over shard files —
// checks every selection, and prints each metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured without
// tracing. With -trace 1 the run also repeats a part of the workload with
// spans recorded around every call into a layer (from this package's own
// code) and reports the per-layer metrics; its selections must equal the
// untraced ones. Spans are written to <out>/spans-<workload>-<seed>.jsonl
// when the run ends.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload tablev_cifar10 --seed 1 --seconds 35 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for spans and scratch files
}

// deadline is the end of the measured part of a run that started at t0.
func (rc runConfig) deadline(t0 time.Time) time.Time {
	return t0.Add(time.Duration(rc.seconds * float64(time.Second)))
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (see BENCHMARK.json for their definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"delta_round_s", "s"},
	{"final_accuracy", "ratio"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"firal.relax_s", "s"},
	{"firal.round_s", "s"},
	{"firal.relax.precond_s", "s"},
	{"firal.relax.cg_s", "s"},
	{"firal.relax.gradient_s", "s"},
	{"firal.round.objective_s", "s"},
	{"firal.round.eig_s", "s"},
	{"firal.relax_iterations", "count"},
	{"firal.scores_s", "s"},
	{"krylov.cg_iterations", "count"},
	{"hessian.matvec_block_s", "s"},
	{"hessian.matvec_block_gflops", "GFLOP/s"},
	{"hessian.quad_accum_block_s", "s"},
	{"mat.multransa_thin_gflops", "GFLOP/s"},
	{"mat.gemm_gflops", "GFLOP/s"},
	{"dataset.sweeps", "count"},
	{"dataset.rows_read", "count"},
	{"dataset.decode_s", "s"},
	{"dataset.lend_wait_s", "s"},
	{"dataset.prefetch_hit_ratio", "ratio"},
	{"dataset.decode_gbps", "GB/s"},
	{"logreg.train_s", "s"},
	{"softmax.probs_s", "s"},
	{"mpi.messages", "count"},
	{"mpi.bytes", "bytes"},
	{"mpi.send_s", "s"},
	{"mpi.recv_wait_s", "s"},
	{"mpi.allreduce_s", "s"},
	{"distfiral.comm_s", "s"},
	{"parallel.cpu_util", "ratio"},
	{"server.create_s", "s"},
	{"server.append_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.relax_phase_s", "s"},
	{"server.round_phase_s", "s"},
	{"server.select_s", "s"},
	{"server.train_s", "s"},
	{"server.checkpoint_bytes", "bytes"},
	{"perfmodel.relax_ratio", "ratio"},
	{"perfmodel.round_ratio", "ratio"},
	{"perfmodel.comm_ratio", "ratio"},
	{"trace.overhead", "ratio"},
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	samples           map[string]int // sample count behind a median, when there is one
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = finite(v) }

func (r *report) setSample(name string, s sample) {
	r.set(name, s.median)
	r.samples[name] = s.n
}

// round records one attempted round and whether it passed its checks.
func (r *report) round(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

type workloadFunc func(ctx context.Context, rc runConfig, r *report) error

var workloads = map[string]workloadFunc{
	"tablev_cifar10":       runTableV,
	"dist_tcp_imagenet50":  runDist,
	"served_stream_append": runServed,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for spans and scratch files")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	// Generous ceiling: a round that has not finished by then counts as
	// failed rather than hanging the run.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	r := newReport()
	t0, steal0 := time.Now(), stealSeconds()
	if err := fn(ctx, rc, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Printf("host: %.1f CPU-seconds stolen by the hypervisor during %.1f s\n", stealSeconds()-steal0, time.Since(t0).Seconds())
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	return emit(os.Stdout, *name, rc, r, defs)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the metrics by name with their units, then the JSON result
// line. It returns the exit code: nonzero when any round failed a check.
func emit(w io.Writer, name string, rc runConfig, r *report, defs []metricDef) int {
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d rounds attempted, %d failed\n",
		name, rc.seed, rc.trace, r.attempted, r.failed)
	res := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if r.attempted == 0 {
		res.Failed = 1
	}
	for _, d := range defs {
		v := r.values[d.name]
		if n := r.samples[d.name]; n > 0 {
			fmt.Fprintf(w, "  %-30s %14.6g %-8s (median of %d)\n", d.name, v, d.unit, n)
		} else {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, v, d.unit)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeSpans stores the tracer's spans under the run's output directory.
func writeSpans(rc runConfig, workload string, tr *tracer) error {
	if tr == nil {
		return nil
	}
	path := filepath.Join(rc.out, fmt.Sprintf("spans-%s-%d.jsonl", workload, rc.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// errCheck marks a failed correctness check (as opposed to an error
// returned by the program).
var errCheck = errors.New("check failed")
