package dataset

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/rnd"
)

// readAll drains a source through ReadRows in blocks of bs and returns
// the materialized matrix.
func readAll(t *testing.T, src PoolSource, bs int) *mat.Dense {
	t.Helper()
	n, d := src.NumRows(), src.Dim()
	out := mat.NewDense(n, d)
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		if err := src.ReadRows(lo, hi, out.RowSlice(lo, hi)); err != nil {
			t.Fatalf("ReadRows [%d, %d): %v", lo, hi, err)
		}
	}
	return out
}

func TestMatrixSourceRoundTrip(t *testing.T) {
	x := mat.NewDense(97, 7)
	rnd.New(1).Normal(x.Data, 0, 1)
	src := NewMatrixSource(x)
	got := readAll(t, src, 13) // ragged: 97 % 13 != 0
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			if got.At(i, j) != x.At(i, j) {
				t.Fatalf("row %d col %d: got %g want %g", i, j, got.At(i, j), x.At(i, j))
			}
		}
	}
	if v := src.ResidentRows(3, 5); &v[0] != &x.Data[3*7] {
		t.Fatal("ResidentRows is not a view of the backing storage")
	}
}

// TestShardRoundTrip writes a pool across two shard files and reads it
// back through every access path: full sweep, ragged blocks, windows
// crossing the file boundary. Values must match the float32 rounding of
// the originals exactly.
func TestShardRoundTrip(t *testing.T) {
	const n, d, split = 89, 5, 37
	x := mat.NewDense(n, d)
	rnd.New(2).Normal(x.Data, 0, 3)
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.shard"), filepath.Join(dir, "b.shard")}
	for s, span := range [][2]int{{0, split}, {split, n}} {
		w, err := CreateShard(paths[s], d)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBlock(x.RowSlice(span[0], span[1])); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	src, err := OpenShards(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.NumRows() != n || src.Dim() != d {
		t.Fatalf("shape %d×%d, want %d×%d", src.NumRows(), src.Dim(), n, d)
	}
	want := func(i, j int) float64 { return float64(float32(x.At(i, j))) }
	for _, bs := range []int{1, 7, n, n + 3} {
		got := readAll(t, src, bs)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				if got.At(i, j) != want(i, j) {
					t.Fatalf("bs=%d row %d col %d: got %g want float32-rounded %g", bs, i, j, got.At(i, j), want(i, j))
				}
			}
		}
	}
	// A window straddling the file boundary.
	win := mat.NewDense(10, d)
	if err := src.ReadRows(split-4, split+6, win); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < d; j++ {
			if win.At(i, j) != want(split-4+i, j) {
				t.Fatalf("boundary window row %d: got %g want %g", i, win.At(i, j), want(split-4+i, j))
			}
		}
	}
}

func TestShardRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.shard")
	if err := os.WriteFile(path, []byte("NOTASHARDxxxxxxxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShards(path); err == nil {
		t.Fatal("OpenShards accepted a non-shard file")
	}
	w, err := CreateShard(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRow([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate the payload below the declared row count.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShards(path); err == nil {
		t.Fatal("OpenShards accepted a truncated shard")
	}
}

func TestSubrangePreservesValuesAndResidency(t *testing.T) {
	x := mat.NewDense(50, 3)
	rnd.New(4).Normal(x.Data, 0, 1)
	sub := Subrange(NewMatrixSource(x), 10, 35)
	if sub.NumRows() != 25 {
		t.Fatalf("NumRows = %d, want 25", sub.NumRows())
	}
	if _, ok := sub.(Resident); !ok {
		t.Fatal("Subrange of a resident source lost the Resident fast path")
	}
	got := readAll(t, sub, 8)
	for i := 0; i < 25; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != x.At(10+i, j) {
				t.Fatalf("row %d: got %g want %g", i, got.At(i, j), x.At(10+i, j))
			}
		}
	}
	if err := sub.ReadRows(20, 26, mat.NewDense(6, 3)); err == nil {
		t.Fatal("out-of-range window accepted")
	}
}

func TestCSVSourceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.csv")
	content := "f1,f2,label\n" +
		"0.5, -1.25,2\n" +
		"3.0,4.5,0\n" +
		"-2.25,0.125,1\n" +
		"7.5,-3.75,2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.NumRows() != 4 || src.Dim() != 2 {
		t.Fatalf("shape %d×%d, want 4×2", src.NumRows(), src.Dim())
	}
	wantLabels := []int{2, 0, 1, 2}
	for i, l := range src.Labels() {
		if l != wantLabels[i] {
			t.Fatalf("label %d = %d, want %d", i, l, wantLabels[i])
		}
	}
	want := [][]float64{{0.5, -1.25}, {3, 4.5}, {-2.25, 0.125}, {7.5, -3.75}}
	got := readAll(t, src, 3)
	for i := range want {
		for j := range want[i] {
			if got.At(i, j) != want[i][j] {
				t.Fatalf("row %d col %d: got %g want %g", i, j, got.At(i, j), want[i][j])
			}
		}
	}
	// Random-access window from the middle.
	win := mat.NewDense(2, 2)
	if err := src.ReadRows(1, 3, win); err != nil {
		t.Fatal(err)
	}
	if win.At(1, 0) != -2.25 {
		t.Fatalf("mid-window read got %g, want -2.25", win.At(1, 0))
	}
}

func TestCSVSourceRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"ragged.csv":   "1,2,0\n1,2,3,0\n",
		"nonnum.csv":   "1,x,0\n",
		"badlabel.csv": "1,2,1.5\n",
		"empty.csv":    "\n\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewCSVSource(path, -1); err == nil {
			t.Fatalf("%s: malformed CSV accepted", name)
		}
	}
}

// TestCSVSourceRejectsNonFinite pins ingestion validation: NaN and ±Inf
// parse as floats, but a pool feature must be finite, so opening fails
// with ErrNonFinite naming the file, row and column.
func TestCSVSourceRejectsNonFinite(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		content  string
		labelCol int
		where    string
	}{
		{"1,2,0\n3,NaN,1\n", -1, "row 2: column 2"},
		{"x,y\n+Inf,2\n", NoLabelColumn, "row 2: column 1"},
		{"1,2\n3,4\n5,-Inf\n", NoLabelColumn, "row 3: column 2"},
	} {
		path := filepath.Join(dir, "pool.csv")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewCSVSource(path, tc.labelCol)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%q: err = %v, want ErrNonFinite", tc.content, err)
		}
		if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, tc.where) {
			t.Fatalf("%q: error %q does not name %s and %q", tc.content, msg, path, tc.where)
		}
	}
}

// TestCSVSourceLeadingBlankAndHeader pins parity with csvdata.Load's
// blank-line handling: a blank line before the header must not demote
// the header to a parse error.
func TestCSVSourceLeadingBlankAndHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blank.csv")
	if err := os.WriteFile(path, []byte("\nf1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, -1)
	if err != nil {
		t.Fatalf("blank line before header rejected: %v", err)
	}
	defer src.Close()
	if src.NumRows() != 2 || src.Dim() != 2 {
		t.Fatalf("shape %d×%d, want 2×2", src.NumRows(), src.Dim())
	}
}

// TestCSVSourceRejectsAmbiguousLabelCol pins the labelCol contract:
// negative values other than -1 (last) and NoLabelColumn are rejected so
// they can't silently pack the label column as a feature while
// csvdata.Load treats them as "last column".
func TestCSVSourceRejectsAmbiguousLabelCol(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.csv")
	if err := os.WriteFile(path, []byte("1.0,2.0,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCSVSource(path, -3); err == nil {
		t.Fatal("labelCol -3 accepted; want an explicit error")
	}
}

func TestCSVSourceFeatureOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feat.csv")
	if err := os.WriteFile(path, []byte("1.5,2.5\n3.5,4.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, NoLabelColumn)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Dim() != 2 || src.Labels() != nil {
		t.Fatalf("feature-only file: dim %d labels %v", src.Dim(), src.Labels())
	}
	got := readAll(t, src, 1)
	if got.At(1, 1) != 4.5 {
		t.Fatalf("got %g, want 4.5", got.At(1, 1))
	}
}

// TestShardWriterFloat32Rounding documents the shard precision contract:
// values survive exactly as their float32 rounding.
func TestShardWriterFloat32Rounding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pi.shard")
	w, err := CreateShard(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRow([]float64{math.Pi}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := OpenShards(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := mat.NewDense(1, 1)
	if err := src.ReadRows(0, 1, got); err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != float64(float32(math.Pi)) {
		t.Fatalf("got %v, want float32(π)", got.At(0, 0))
	}
	if got.At(0, 0) == math.Pi {
		t.Fatal("shard kept float64 precision; expected float32 storage")
	}
}
