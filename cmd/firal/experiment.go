package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	pub "repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

// runFunc runs one experiment once its flags are parsed, writing the
// figure or table to w.
type runFunc func(ctx context.Context, w io.Writer) error

// experimentTable maps each `firal experiment <name>` to the function that
// declares its flags on a fresh FlagSet and returns its run function.
var experimentTable = []struct {
	name  string
	flags func(fs *flag.FlagSet) runFunc
}{
	{"accuracy", accuracyFlags},
	{"cg", cgFlags},
	{"scaling", scalingFlags},
	{"sensitivity", sensitivityFlags},
	{"single", singleFlags},
	{"time", timeFlags},
}

// runExperiment dispatches `firal experiment <name> [flags]` (args starts
// at <name>) and writes the experiment's output to w. Like the top-level
// flags, the experiment's flags are parsed with flag.ExitOnError: -h
// exits 0 and a malformed flag exits 2 after printing the usage. Every
// other failure, a bad flag value included, comes back as an error.
func runExperiment(ctx context.Context, args []string, w io.Writer) error {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	if len(args) == 0 {
		return fmt.Errorf("experiment: need a name, one of %s", strings.Join(names, ", "))
	}
	for _, e := range experimentTable {
		if e.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("firal experiment "+e.name, flag.ExitOnError)
		run := e.flags(fs)
		fs.Parse(args[1:]) // ExitOnError: returns only on success
		if err := run(ctx, w); err != nil {
			return fmt.Errorf("experiment %s: %w", e.name, err)
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q, want one of %s", args[0], strings.Join(names, ", "))
}

// configsByName returns the Table V configs whose name matches name
// case-insensitively, or defaults when name is empty.
func configsByName(name string, defaults ...dataset.Config) ([]dataset.Config, error) {
	if name == "" {
		return defaults, nil
	}
	var cfgs []dataset.Config
	for _, c := range dataset.TableV() {
		if strings.EqualFold(c.Name, name) {
			cfgs = append(cfgs, c)
		}
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("unknown dataset %q (see `firal experiment accuracy -table5` for names)", name)
	}
	return cfgs, nil
}

// override applies the host-sized reductions of paper-scale configs; a
// zero value keeps the Table V value. A reduced dimension is marked in the
// dataset name so the printed tables say so.
func override(cfgs []dataset.Config, d, c, budget, rounds int) {
	for i := range cfgs {
		if d > 0 {
			cfgs[i].Dim = d
			cfgs[i].Name += " (reduced)"
		}
		if c > 0 {
			cfgs[i].Classes = c
		}
		if budget > 0 {
			cfgs[i].Budget = budget
		}
		if rounds > 0 {
			cfgs[i].Rounds = rounds
		}
	}
}

// parseInts parses a comma-separated list of integers such as "1,2,3".
func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// accuracyFlags declares the flags of Figs. 2–3 and Table V.
func accuracyFlags(fs *flag.FlagSet) runFunc {
	var (
		set      = fs.String("set", "small", "dataset group: small (Fig. 2), large (Fig. 3), all")
		name     = fs.String("dataset", "", "run a single named dataset (overrides -set)")
		scale    = fs.Float64("scale", 0.1, "pool/eval size scale factor vs Table V")
		trials   = fs.Int("trials", 3, "trials for Random/K-Means (paper: 10)")
		seed     = fs.Int64("seed", 1, "master seed")
		table5   = fs.Bool("table5", false, "print the Table V dataset summary and exit")
		selector = fs.String("selectors", "", "comma-separated selector subset (default: paper's five)")
		probes   = fs.Int("probes", 10, "Rademacher probes s for Approx-FIRAL")
		cgtol    = fs.Float64("cgtol", 0.1, "CG tolerance for Approx-FIRAL")
		relaxIt  = fs.Int("relaxiters", 0, "cap on mirror-descent iterations (0 = paper default 100)")
		dOver    = fs.Int("d", 0, "override feature dimension")
		cOver    = fs.Int("c", 0, "override class count")
		bOver    = fs.Int("budget", 0, "override per-round budget")
		rOver    = fs.Int("rounds", 0, "override round count")
	)
	return func(ctx context.Context, w io.Writer) error {
		if *table5 {
			printTableV(w)
			return nil
		}
		var group []dataset.Config
		if *name == "" {
			switch *set {
			case "small":
				group = []dataset.Config{dataset.MNIST(), dataset.CIFAR10(), dataset.ImbCIFAR10(),
					dataset.ImageNet50(), dataset.ImbImageNet50()}
			case "large":
				group = []dataset.Config{dataset.Caltech101(), dataset.ImageNet1k()}
			case "all":
				group = dataset.TableV()
			default:
				return fmt.Errorf("unknown -set %q", *set)
			}
		}
		cfgs, err := configsByName(*name, group...)
		if err != nil {
			return err
		}
		override(cfgs, *dOver, *cOver, *bOver, *rOver)

		opts := experiments.AccuracyOptions{
			Scale:  *scale,
			Trials: *trials,
			Seed:   *seed,
			FIRAL:  pub.FIRALOptions{Probes: *probes, CGTol: *cgtol, MaxRelaxIterations: *relaxIt},
		}
		if *selector != "" {
			opts.Selectors = strings.Split(*selector, ",")
		}
		for _, cfg := range cfgs {
			curves, err := experiments.RunAccuracy(ctx, cfg, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.Name, err)
			}
			experiments.PrintAccuracy(w, curves)
			fmt.Fprintln(w)
		}
		return nil
	}
}

func printTableV(w io.Writer) {
	fmt.Fprintln(w, "# Table V — dataset summary")
	headers := []string{"name", "type", "#classes", "dim", "|Xo|", "|Xu|", "#rounds", "budget/round", "#eval"}
	var rows [][]string
	for _, c := range dataset.TableV() {
		typ := "balanced"
		if c.ImbalanceRatio > 1 {
			typ = fmt.Sprintf("imbalanced (%g:1)", c.ImbalanceRatio)
		}
		rows = append(rows, []string{
			c.Name, typ,
			fmt.Sprintf("%d", c.Classes),
			fmt.Sprintf("%d", c.Dim),
			fmt.Sprintf("%d", c.InitPerClass*c.Classes),
			fmt.Sprintf("%d", c.PoolSize),
			fmt.Sprintf("%d", c.Rounds),
			fmt.Sprintf("%d", c.Budget),
			fmt.Sprintf("%d", c.EvalSize),
		})
	}
	experiments.PrintTable(w, headers, rows)
}

// cgFlags declares the flags of Fig. 1 and the condition numbers of
// § III-A.
func cgFlags(fs *flag.FlagSet) runFunc {
	var (
		name    = fs.String("dataset", "", "single dataset (default: CIFAR-10 and ImageNet-1k, as in Fig. 1)")
		scale   = fs.Float64("scale", 0.1, "pool size scale factor")
		seed    = fs.Int64("seed", 1, "seed")
		tol     = fs.Float64("tol", 1e-3, "CG termination tolerance for the recorded runs")
		maxIter = fs.Int("maxiter", 800, "CG iteration cap")
		condEd  = fs.Int("maxcond", 500, "max ẽd for dense condition-number computation (0 = skip)")
	)
	return func(ctx context.Context, w io.Writer) error {
		cfgs, err := configsByName(*name, dataset.CIFAR10(), dataset.ImageNet1k())
		if err != nil {
			return err
		}
		for _, cfg := range cfgs {
			res, err := experiments.RunCGConvergence(ctx, cfg, *scale, *seed, *tol, *maxIter, *condEd)
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.Name, err)
			}
			experiments.PrintCGConvergence(w, res)
			fmt.Fprintln(w)
		}
		return nil
	}
}

// scalingFlags declares the flags of Figs. 6–7.
func scalingFlags(fs *flag.FlagSet) runFunc {
	var (
		step     = fs.String("step", "relax", "relax or round")
		mode     = fs.String("mode", "strong", "strong or weak")
		ranksStr = fs.String("ranks", "1,2,3,6,12", "rank counts to sweep")
		n        = fs.Int("n", 24000, "global pool size (strong)")
		nPerRank = fs.Int("nperrank", 2000, "pool points per rank (weak)")
		d        = fs.Int("d", 48, "feature dimension")
		c        = fs.Int("c", 10, "class count")
		s        = fs.Int("s", 10, "Rademacher probes (relax)")
		ncg      = fs.Int("ncg", 20, "fixed CG iterations per solve (relax)")
		b        = fs.Int("b", 3, "points selected when timing the round step")
		seed     = fs.Int64("seed", 1, "seed")
	)
	return func(ctx context.Context, w io.Writer) error {
		ranks, err := parseInts(*ranksStr)
		if err != nil {
			return fmt.Errorf("bad -ranks: %w", err)
		}
		opts := experiments.ScalingOptions{
			Ranks: ranks, Strong: *mode == "strong",
			N: *n, NPerRank: *nPerRank, D: *d, C: *c,
			S: *s, NCG: *ncg, B: *b, Seed: *seed,
		}
		switch *step {
		case "relax":
			points, err := experiments.RunRelaxScaling(ctx, opts)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Fig. 6 — RELAX %s scaling (d=%d c=%d)", *mode, *d, *c)
			experiments.PrintScaling(w, title, []string{"precond", "cg", "gradient", "comm"}, points)
		case "round":
			points, err := experiments.RunRoundScaling(ctx, opts)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Fig. 7 — ROUND %s scaling (d=%d c=%d), per selected point", *mode, *d, *c)
			experiments.PrintScaling(w, title, []string{"eig", "objective", "comm", "other"}, points)
		default:
			return fmt.Errorf("unknown -step %q", *step)
		}
		return nil
	}
}

// sensitivityFlags declares the flags of Fig. 4.
func sensitivityFlags(fs *flag.FlagSet) runFunc {
	var (
		name  = fs.String("dataset", "", "single dataset (default: CIFAR-10 and ImageNet-50, as in Fig. 4)")
		scale = fs.Float64("scale", 0.1, "pool size scale factor")
		seed  = fs.Int64("seed", 1, "seed")
		iters = fs.Int("iters", 40, "mirror-descent iterations to trace")
		exact = fs.Bool("exact", true, "include the exact RELAX trajectory when feasible")
	)
	return func(ctx context.Context, w io.Writer) error {
		cfgs, err := configsByName(*name, dataset.CIFAR10(), dataset.ImageNet50())
		if err != nil {
			return err
		}
		for _, cfg := range cfgs {
			curves, err := experiments.RunSensitivity(ctx, cfg, experiments.SensitivityOptions{
				Scale: *scale, Seed: *seed, Iterations: *iters, IncludeExact: *exact,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.Name, err)
			}
			experiments.PrintSensitivity(w, cfg.Name, curves)
			fmt.Fprintln(w)
		}
		return nil
	}
}

// singleFlags declares the flags of Fig. 5.
func singleFlags(fs *flag.FlagSet) runFunc {
	var (
		step   = fs.String("step", "relax", "relax or round")
		sweep  = fs.String("sweep", "d", "swept parameter: d or c")
		values = fs.String("values", "", "comma-separated sweep values (default: d→24,48,64; c→8,16,32)")
		dFix   = fs.Int("d", 24, "fixed d when sweeping c")
		cFix   = fs.Int("c", 12, "fixed c when sweeping d")
		n      = fs.Int("n", 20000, "pool size")
		s      = fs.Int("s", 10, "Rademacher probes (relax)")
		ncg    = fs.Int("ncg", 50, "fixed CG iterations per solve (relax)")
		seed   = fs.Int64("seed", 1, "seed")
	)
	return func(ctx context.Context, w io.Writer) error {
		if *values == "" {
			if *sweep == "d" {
				*values = "24,48,64"
			} else {
				*values = "8,16,32"
			}
		}
		vals, err := parseInts(*values)
		if err != nil {
			return fmt.Errorf("bad -values: %w", err)
		}
		fixed := *cFix
		if *sweep == "c" {
			fixed = *dFix
		}
		opts := experiments.SingleDeviceOptions{N: *n, S: *s, NCG: *ncg, Seed: *seed}
		switch *step {
		case "relax":
			rows, err := experiments.RunRelaxSweep(ctx, *sweep, vals, fixed, opts)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Fig. 5 — RELAX solve, sweep over %s (n=%d, s=%d, nCG=%d)", *sweep, *n, *s, *ncg)
			experiments.PrintBreakdown(w, title, *sweep, []string{"precond", "cg", "gradient", "other"}, rows)
		case "round":
			rows, err := experiments.RunRoundSweep(ctx, *sweep, vals, fixed, opts)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Fig. 5 — ROUND solve, sweep over %s (n=%d)", *sweep, *n)
			experiments.PrintBreakdown(w, title, *sweep, []string{"eig", "objective", "other"}, rows)
		default:
			return fmt.Errorf("unknown -step %q", *step)
		}
		return nil
	}
}

// timeFlags declares the flags of Table VI and the analytic Tables II–III.
func timeFlags(fs *flag.FlagSet) runFunc {
	var (
		name       = fs.String("dataset", "", "single dataset (default: ImageNet-50 and Caltech-101, as in Table VI)")
		scale      = fs.Float64("scale", 0.05, "pool size scale factor")
		seed       = fs.Int64("seed", 1, "seed")
		relaxIters = fs.Int("relaxiters", 5, "mirror-descent iterations timed in both solvers")
		tables     = fs.Bool("tables", false, "print analytic Tables II and III at paper scale and exit")
		// Exact-FIRAL at d=50, c=50 is out of reach of a laptop, hence
		// the overrides.
		dOver = fs.Int("d", 0, "override feature dimension")
		cOver = fs.Int("c", 0, "override class count")
		bOver = fs.Int("budget", 0, "override budget")
	)
	return func(ctx context.Context, w io.Writer) error {
		if *tables {
			fmt.Fprint(w, perfmodel.FormatTableII(100, 50, 5000, 50, 50, 50, 10))
			fmt.Fprintln(w)
			fmt.Fprint(w, perfmodel.FormatTableIII(383, 1000))
			return nil
		}
		cfgs, err := configsByName(*name, dataset.ImageNet50(), dataset.Caltech101())
		if err != nil {
			return err
		}
		override(cfgs, *dOver, *cOver, *bOver, 0)

		var comparisons []*experiments.TimeComparison
		for _, cfg := range cfgs {
			tc, err := experiments.RunTableVI(ctx, cfg, *scale, *seed, *relaxIters)
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.Name, err)
			}
			comparisons = append(comparisons, tc)
		}
		experiments.PrintTableVI(w, comparisons)
		return nil
	}
}
