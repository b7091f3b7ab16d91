package csvdata

import (
	"math"
	"strings"
	"testing"
)

// FuzzParse feeds Parse arbitrary records: content is split into rows on
// '\n' and cells on ',' (no CSV quoting, so ragged rows reach Parse's own
// width check). Parse may reject its input but must never panic, and what
// it accepts must be finite features with non-negative labels. The seed
// corpus lives in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add("1,2,0\n3.5,4.5,1\n", -1)
	f.Fuzz(func(t *testing.T, content string, labelCol int) {
		var records [][]string
		for _, line := range strings.Split(content, "\n") {
			records = append(records, strings.Split(line, ","))
		}
		x, y, err := Parse(records, labelCol, "fuzz")
		if err != nil {
			return
		}
		if len(x) != len(y) {
			t.Fatalf("%d feature rows, %d labels", len(x), len(y))
		}
		for i, row := range x {
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("row %d col %d: non-finite feature %g accepted", i, j, v)
				}
			}
			if y[i] < 0 {
				t.Fatalf("row %d: negative label %d accepted", i, y[i])
			}
		}
	})
}
