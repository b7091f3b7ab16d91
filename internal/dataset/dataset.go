// Package dataset generates the synthetic feature embeddings that stand in
// for the paper's datasets (Table V). The paper never feeds raw images to
// FIRAL: every dataset is first reduced to an (n, d) embedding with c
// classes by unsupervised feature extraction (spectral subspaces for
// MNIST/CIFAR-10, DINOv2 for Caltech-101/ImageNet), and FIRAL's theory
// assumes sub-Gaussian inputs. We therefore simulate each dataset as a
// sub-Gaussian class mixture with the same (n, d, c), the same
// labeled/pool/eval split sizes, the same imbalance ratios, and the same
// per-round budgets — preserving exactly the structure the selectors
// interact with.
//
// The package also defines the out-of-core pool abstraction the
// streaming solvers consume: PoolSource and its implementations
// (MatrixSource, ShardSource, CSVSource, LiveSource, plus the Subrange,
// TombstoneView, and CountingSource wrappers), and PrefetchSource /
// WithPrefetch, the async block read-ahead layer that overlaps shard
// decode with kernel compute. The streaming and prefetch contracts are
// specified in ARCHITECTURE.md § Contract 3.
package dataset

import (
	"math"

	"repro/internal/mat"
	"repro/internal/rnd"
)

// Config describes one active-learning dataset in the shape of Table V.
type Config struct {
	// Name identifies the dataset ("CIFAR-10", "imb-ImageNet-50", …).
	Name string
	// Classes (c) and Dim (d).
	Classes, Dim int
	// PoolSize is |Xu| and EvalSize the evaluation-set size.
	PoolSize, EvalSize int
	// InitPerClass is the number of initially labeled samples per class
	// (1 for most datasets, 2 for ImageNet-1k).
	InitPerClass int
	// Rounds and Budget are the active-learning schedule (budget points
	// per round).
	Rounds, Budget int
	// ImbalanceRatio is the max class-size ratio in the pool (1 =
	// balanced; 10 for imb-CIFAR-10/Caltech-101, 8 for imb-ImageNet-50).
	ImbalanceRatio float64
	// Separation scales class-mean distances; Noise is the within-class
	// standard deviation. Zero values take the defaults (1.0, 0.35) that
	// mimic good self-supervised embeddings.
	Separation, Noise float64
}

func (c Config) defaults() Config {
	if c.ImbalanceRatio <= 0 {
		c.ImbalanceRatio = 1
	}
	if c.Separation <= 0 {
		// Calibrated so the Random baseline lands in the paper's Fig. 2
		// accuracy bands (≈77% at 20 labels → ≈83% at 40 on CIFAR-10).
		c.Separation = 1.4
	}
	if c.Noise <= 0 {
		// Per-dimension noise. Within-class radius grows like σ·√d, so σ
		// shrinks as 1/√d beyond d = 20 to keep class overlap — and hence
		// the achievable accuracy band — comparable across the Table V
		// dimensions, as it is for the paper's real embeddings (good
		// self-supervised features have low intrinsic dimension
		// regardless of the ambient d).
		c.Noise = 0.35
		if c.Dim > 20 {
			c.Noise = 0.35 * math.Sqrt(20/float64(c.Dim))
		}
	}
	return c
}

// Scale returns a copy with pool and eval sizes multiplied by f (rounded,
// floored at one point per class), for CPU-sized runs of paper-scale
// configs.
func (c Config) Scale(f float64) Config {
	c.PoolSize = max(int(float64(c.PoolSize)*f), c.Classes)
	c.EvalSize = max(int(float64(c.EvalSize)*f), c.Classes)
	return c
}

// Dataset is a realized active-learning instance.
type Dataset struct {
	Config
	// LabeledX/LabeledY form the initial labeled set Xo.
	LabeledX *mat.Dense
	LabeledY []int
	// PoolX/PoolY form the unlabeled pool Xu (labels are hidden from the
	// selector and revealed when a point is "labeled").
	PoolX *mat.Dense
	PoolY []int
	// EvalX/EvalY form the held-out evaluation set.
	EvalX *mat.Dense
	EvalY []int
	// Means holds the class means actually used (Classes×Dim), kept for
	// diagnostics.
	Means *mat.Dense
}

// Generate realizes a Config as a synthetic embedding with the given seed.
func Generate(cfg Config, seed int64) *Dataset {
	cfg = cfg.defaults()
	rng := rnd.New(seed)
	c, d := cfg.Classes, cfg.Dim

	// Class means: random directions scaled so that neighbouring classes
	// overlap through the Noise level, plus per-class anisotropy factors
	// so clusters are not perfectly spherical.
	means := mat.NewDense(c, d)
	for k := 0; k < c; k++ {
		rng.UnitVector(means.Row(k))
		mat.Scal(cfg.Separation, means.Row(k))
	}
	aniso := make([]float64, c)
	for k := range aniso {
		aniso[k] = 0.75 + 0.5*rng.Float64()
	}

	sampleClass := func(x []float64, k int) {
		rng.Normal(x, 0, cfg.Noise*aniso[k])
		mat.Axpy(1, means.Row(k), x)
	}

	// Pool class counts: balanced, or geometric profile with the given
	// max ratio (largest class / smallest class).
	poolCounts := classCounts(cfg.PoolSize, c, cfg.ImbalanceRatio)
	evalCounts := classCounts(cfg.EvalSize, c, 1) // eval is the "whole training set": balanced

	ds := &Dataset{Config: cfg, Means: means}
	ds.PoolX, ds.PoolY = sampleSet(rng, poolCounts, d, sampleClass)
	ds.EvalX, ds.EvalY = sampleSet(rng, evalCounts, d, sampleClass)

	// Initial labeled set: InitPerClass per class.
	nInit := cfg.InitPerClass * c
	ds.LabeledX = mat.NewDense(nInit, d)
	ds.LabeledY = make([]int, nInit)
	for i := 0; i < nInit; i++ {
		k := i % c
		sampleClass(ds.LabeledX.Row(i), k)
		ds.LabeledY[i] = k
	}
	return ds
}

// classCounts splits total points over c classes; ratio is the
// largest/smallest class-size ratio (geometric profile when > 1).
func classCounts(total, c int, ratio float64) []int {
	weights := make([]float64, c)
	var sum float64
	for k := 0; k < c; k++ {
		if ratio <= 1 || c == 1 {
			weights[k] = 1
		} else {
			// w_k = ratio^{-k/(c-1)}: w_0/w_{c-1} = ratio.
			weights[k] = math.Pow(ratio, -float64(k)/float64(c-1))
		}
		sum += weights[k]
	}
	counts := make([]int, c)
	assigned := 0
	for k := 0; k < c; k++ {
		counts[k] = int(float64(total) * weights[k] / sum)
		if counts[k] < 1 {
			counts[k] = 1
		}
		assigned += counts[k]
	}
	// Fix rounding drift on the largest class.
	counts[0] += total - assigned
	if counts[0] < 1 {
		counts[0] = 1
	}
	return counts
}

// sampleSet draws points class-by-class and then applies a deterministic
// interleaving shuffle so class labels are not ordered.
func sampleSet(rng *rnd.Source, counts []int, d int, sample func(x []float64, k int)) (*mat.Dense, []int) {
	var total int
	for _, n := range counts {
		total += n
	}
	x := mat.NewDense(total, d)
	y := make([]int, total)
	i := 0
	for k, n := range counts {
		for j := 0; j < n; j++ {
			sample(x.Row(i), k)
			y[i] = k
			i++
		}
	}
	// Fisher–Yates shuffle of rows.
	for i := total - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		ri, rj := x.Row(i), x.Row(j)
		for t := range ri {
			ri[t], rj[t] = rj[t], ri[t]
		}
		y[i], y[j] = y[j], y[i]
	}
	return x, y
}
