// Package csvdata loads feature/label matrices from CSV files for the
// cmd/firal end-user tool. One row per point; one column holds the
// integer class label, the rest are float features. A non-numeric first
// row is treated as a header and skipped.
package csvdata

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/dataset"
)

// Load reads a CSV file and splits it into features and labels. labelCol
// selects the label column; −1 means the last column. All rows must have
// the same width.
func Load(path string, labelCol int) ([][]float64, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.TrimLeadingSpace = true
	records, err := r.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("csvdata: %s: %w", path, err)
	}
	return Parse(records, labelCol, path)
}

// Parse converts CSV records into features and labels (see Load). A NaN or
// ±Inf feature is rejected with an error matching dataset.ErrNonFinite.
func Parse(records [][]string, labelCol int, name string) ([][]float64, []int, error) {
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("csvdata: %s: empty file", name)
	}
	start := 0
	if !numericRow(records[0]) {
		start = 1 // header
	}
	if start >= len(records) {
		return nil, nil, fmt.Errorf("csvdata: %s: no data rows", name)
	}
	width := len(records[start])
	if width < 2 {
		return nil, nil, fmt.Errorf("csvdata: %s: need at least one feature and one label column", name)
	}
	lc := labelCol
	if lc < 0 {
		lc = width - 1
	}
	if lc >= width {
		return nil, nil, fmt.Errorf("csvdata: %s: label column %d out of range (width %d)", name, lc, width)
	}
	var features [][]float64
	var labels []int
	for rowIdx := start; rowIdx < len(records); rowIdx++ {
		rec := records[rowIdx]
		if len(rec) != width {
			return nil, nil, fmt.Errorf("csvdata: %s: row %d has %d columns, want %d", name, rowIdx+1, len(rec), width)
		}
		feat := make([]float64, 0, width-1)
		var label int
		for col, cell := range rec {
			if col == lc {
				v, err := strconv.Atoi(cell)
				if err != nil {
					return nil, nil, fmt.Errorf("csvdata: %s: row %d: label %q is not an integer", name, rowIdx+1, cell)
				}
				if v < 0 {
					return nil, nil, fmt.Errorf("csvdata: %s: row %d: negative label %d", name, rowIdx+1, v)
				}
				label = v
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("csvdata: %s: row %d col %d: %q is not numeric", name, rowIdx+1, col+1, cell)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("csvdata: %s: row %d col %d: %q: %w", name, rowIdx+1, col+1, cell, dataset.ErrNonFinite)
			}
			feat = append(feat, v)
		}
		features = append(features, feat)
		labels = append(labels, label)
	}
	return features, labels, nil
}

// NumClasses returns 1 + the maximum label across the given label slices.
func NumClasses(labelSets ...[]int) int {
	maxLabel := 0
	for _, ys := range labelSets {
		for _, y := range ys {
			if y > maxLabel {
				maxLabel = y
			}
		}
	}
	return maxLabel + 1
}

func numericRow(rec []string) bool {
	for _, cell := range rec {
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			return false
		}
	}
	return true
}
