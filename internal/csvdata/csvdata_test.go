package csvdata

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBasic(t *testing.T) {
	path := writeTemp(t, "1.0,2.0,0\n3.5,4.5,1\n")
	x, y, err := Load(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 2 || len(x[0]) != 2 {
		t.Fatalf("features %v", x)
	}
	if y[0] != 0 || y[1] != 1 {
		t.Fatalf("labels %v", y)
	}
	if x[1][1] != 4.5 {
		t.Fatalf("feature value %g", x[1][1])
	}
}

func TestLoadHeaderSkipped(t *testing.T) {
	path := writeTemp(t, "f1,f2,label\n1,2,0\n3,4,1\n")
	x, y, err := Load(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 2 || len(y) != 2 {
		t.Fatalf("rows %d/%d", len(x), len(y))
	}
}

func TestLoadLabelColumnSelection(t *testing.T) {
	path := writeTemp(t, "2,0.5,0.7\n1,0.1,0.2\n")
	x, y, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 2 || y[1] != 1 {
		t.Fatalf("labels %v", y)
	}
	if len(x[0]) != 2 || x[0][0] != 0.5 {
		t.Fatalf("features %v", x)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name, content string
		labelCol      int
		is            error  // when set, the error must match it
		where         string // when set, the error must name this position
	}{
		{"empty", "", -1, nil, ""},
		{"header only", "a,b\n", -1, nil, ""},
		{"one column", "1\n2\n", -1, nil, ""},
		// A non-numeric FIRST row is a header by design, so the malformed
		// cells below sit in second rows.
		{"bad label", "1,2,0\n1,2,x\n", -1, nil, ""},
		{"negative label", "1,2,0\n1,2,-1\n", -1, nil, ""},
		{"bad feature", "1,2,0\nx?,2,0\n", -1, nil, ""},
		{"label col out of range", "1,2,0\n", 7, nil, ""},
		{"NaN feature", "1,2,0\n1,NaN,1\n", -1, dataset.ErrNonFinite, "row 2 col 2"},
		{"Inf feature", "Inf,2,0\n", -1, dataset.ErrNonFinite, "row 1 col 1"},
		{"-Inf feature", "f,g,label\n1,2,0\n0,-inf,1\n", -1, dataset.ErrNonFinite, "row 3 col 2"},
	}
	for _, tc := range cases {
		path := writeTemp(t, tc.content)
		_, _, err := Load(path, tc.labelCol)
		switch {
		case err == nil:
			t.Errorf("%s: expected error", tc.name)
		case tc.is != nil && !errors.Is(err, tc.is):
			t.Errorf("%s: error %v does not match %v", tc.name, err, tc.is)
		case !strings.Contains(err.Error(), tc.where):
			t.Errorf("%s: error %v does not name %q", tc.name, err, tc.where)
		}
	}
	if _, _, err := Load("/nonexistent/file.csv", -1); err == nil {
		t.Error("missing file: expected error")
	}
}

func TestRaggedRowsRejected(t *testing.T) {
	// encoding/csv itself rejects ragged rows; confirm the error surfaces.
	path := writeTemp(t, "1,2,0\n1,2\n")
	if _, _, err := Load(path, -1); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestNumClasses(t *testing.T) {
	if n := NumClasses([]int{0, 1, 2}, []int{5}); n != 6 {
		t.Fatalf("NumClasses %d", n)
	}
	if n := NumClasses(nil, []int{0}); n != 1 {
		t.Fatalf("NumClasses %d", n)
	}
}
