package firal

import (
	"repro/internal/dataset"
	"repro/internal/mat"
)

// Synthetic describes a synthetic embedding benchmark shaped like one of
// the paper's Table V datasets: a sub-Gaussian class mixture with the
// dataset's shape, which is the input model FIRAL's theory assumes (see
// the internal dataset package for the substitution argument).
type Synthetic struct {
	Name           string
	Classes, Dim   int
	PoolSize       int
	EvalSize       int
	InitPerClass   int
	Rounds, Budget int
	// ImbalanceRatio is the max class-size ratio in the pool (1 =
	// balanced).
	ImbalanceRatio float64
	// Separation and Noise control the mixture geometry (0 = defaults).
	Separation, Noise float64
}

func fromInternal(c dataset.Config) Synthetic {
	return Synthetic{
		Name: c.Name, Classes: c.Classes, Dim: c.Dim,
		PoolSize: c.PoolSize, EvalSize: c.EvalSize,
		InitPerClass: c.InitPerClass, Rounds: c.Rounds, Budget: c.Budget,
		ImbalanceRatio: c.ImbalanceRatio,
		Separation:     c.Separation, Noise: c.Noise,
	}
}

func (s Synthetic) internal() dataset.Config {
	return dataset.Config{
		Name: s.Name, Classes: s.Classes, Dim: s.Dim,
		PoolSize: s.PoolSize, EvalSize: s.EvalSize,
		InitPerClass: s.InitPerClass, Rounds: s.Rounds, Budget: s.Budget,
		ImbalanceRatio: s.ImbalanceRatio,
		Separation:     s.Separation, Noise: s.Noise,
	}
}

// Scale multiplies pool and eval sizes by f (floored at one point per
// class) for smaller runs.
func (s Synthetic) Scale(f float64) Synthetic {
	return fromInternal(s.internal().Scale(f))
}

// Generate realizes the benchmark with the given seed as a Learner Config.
func (s Synthetic) Generate(seed int64) Config {
	ds := dataset.Generate(s.internal(), seed)
	return Config{
		PoolX:    matRows(ds.PoolX),
		PoolY:    ds.PoolY,
		LabeledX: matRows(ds.LabeledX),
		LabeledY: ds.LabeledY,
		EvalX:    matRows(ds.EvalX),
		EvalY:    ds.EvalY,
		Classes:  s.Classes,
		Seed:     seed,
		Rounds:   s.Rounds,
		Budget:   s.Budget,
	}
}

func matRows(m *mat.Dense) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// The seven Table V benchmarks, paper-sized (use Scale for CPU runs).

// MNISTLike mirrors the MNIST row of Table V.
func MNISTLike() Synthetic { return fromInternal(dataset.MNIST()) }

// CIFAR10Like mirrors the CIFAR-10 row of Table V.
func CIFAR10Like() Synthetic { return fromInternal(dataset.CIFAR10()) }

// ImbCIFAR10Like mirrors imb-CIFAR-10 (10:1 pool imbalance).
func ImbCIFAR10Like() Synthetic { return fromInternal(dataset.ImbCIFAR10()) }

// ImageNet50Like mirrors ImageNet-50.
func ImageNet50Like() Synthetic { return fromInternal(dataset.ImageNet50()) }

// ImbImageNet50Like mirrors imb-ImageNet-50 (8:1 pool imbalance).
func ImbImageNet50Like() Synthetic { return fromInternal(dataset.ImbImageNet50()) }

// Caltech101Like mirrors Caltech-101 (10:1 imbalance).
func Caltech101Like() Synthetic { return fromInternal(dataset.Caltech101()) }

// ImageNet1kLike mirrors ImageNet-1k.
func ImageNet1kLike() Synthetic { return fromInternal(dataset.ImageNet1k()) }

// TableV returns all seven benchmarks in paper order.
func TableV() []Synthetic {
	out := make([]Synthetic, 0, 7)
	for _, c := range dataset.TableV() {
		out = append(out, fromInternal(c))
	}
	return out
}
