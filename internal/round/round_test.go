package round

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/logreg"
	"repro/internal/mat"
)

// TestStreamProbsRangeMatchesFull pins the delta sweep against the full
// sweep: filling a matrix with two arbitrary-split range calls must
// reproduce the single full pass bit for bit, reduced and unreduced.
func TestStreamProbsRangeMatchesFull(t *testing.T) {
	const n, d, c = 157, 4, 3
	ds := dataset.Generate(dataset.Config{
		Classes: c, Dim: d, PoolSize: n, EvalSize: c, InitPerClass: 3,
		Rounds: 1, Budget: 1,
	}, 51)
	shard := filepath.Join(t.TempDir(), "pool.shard")
	w, err := dataset.CreateShard(shard, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock(ds.PoolX); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.OpenShards(shard)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	model, err := logreg.Train(ds.LabeledX, ds.LabeledY, c, nil, logreg.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, cols := range []int{c - 1, c} {
		full := mat.NewDense(n, cols)
		if err := Probs(full, src, model.Theta, 13, 0, n); err != nil {
			t.Fatal(err)
		}
		for _, split := range []int{0, 1, 13, 64, n - 1, n} {
			got := mat.NewDense(n, cols)
			if err := Probs(got, src, model.Theta, 13, 0, split); err != nil {
				t.Fatal(err)
			}
			if err := Probs(got, src, model.Theta, 13, split, n); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < cols; j++ {
					if got.Row(i)[j] != full.Row(i)[j] {
						t.Fatalf("cols=%d split=%d: row %d col %d differs", cols, split, i, j)
					}
				}
			}
		}
	}
}
