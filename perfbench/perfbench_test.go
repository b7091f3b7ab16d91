package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSelfTimesSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "learner.round", Start: 0, End: 10},
		// Two ranks' overlapping children: their union is [1, 6].
		{ID: 2, Parent: 1, Name: "firal.relax", Rank: 0, Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "firal.relax", Rank: 1, Start: 2, End: 6},
		// A disjoint child, partly outside its parent: only [8, 10] counts.
		{ID: 4, Parent: 1, Name: "firal.round", Start: 8, End: 12},
		// A grandchild is charged to its own parent only.
		{ID: 5, Parent: 2, Name: "krylov.cg", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 5 - 2, 2: 4 - 1, 3: 4, 4: 4, 5: 1}
	for id, w := range want {
		if !near(self[id], w) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		iv   [][2]float64
		want float64
	}{
		{nil, 0},
		{[][2]float64{{0, 1}}, 1},
		{[][2]float64{{3, 4}, {0, 1}}, 2},
		{[][2]float64{{0, 2}, {1, 3}, {2.5, 2.75}}, 3},
		{[][2]float64{{0, 5}, {1, 2}}, 5},
	}
	for _, c := range cases {
		if got := unionLength(c.iv); !near(got, c.want) {
			t.Errorf("unionLength(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestPerRoundTakesSlowestRank(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "firal.relax", Round: 1, Rank: 0, Start: 0, End: 2},
		{ID: 2, Name: "firal.relax", Round: 1, Rank: 1, Start: 0, End: 3},
		{ID: 3, Name: "firal.relax", Round: 2, Rank: 0, Start: 5, End: 6},
		{ID: 4, Name: "firal.relax", Round: 2, Rank: 0, Start: 7, End: 8}, // same rank: summed
		{ID: 5, Name: "firal.round", Round: 2, Rank: 0, Start: 8, End: 9},
	}
	got := perRound(spans, selfTimes(spans), "firal.relax")
	if len(got) != 2 || !near(got[1], 3) || !near(got[2], 2) {
		t.Errorf("perRound = %v, want map[1:3 2:2]", got)
	}
}

func TestMedianWithSampleCount(t *testing.T) {
	cases := []struct {
		xs   []float64
		want sample
	}{
		{nil, sample{0, 0}},
		{[]float64{4}, sample{4, 1}},
		{[]float64{3, 1, 2}, sample{2, 3}},
		{[]float64{4, 1, 3, 2}, sample{2.5, 4}},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("summarize reordered its input: %v", c.xs)
			}
		}
	}
}

func TestRatiosAlignRounds(t *testing.T) {
	got := ratios(map[int]float64{1: 6, 2: 9, 3: 1}, map[int]float64{1: 2, 2: 3, 4: 5})
	if len(got) != 2 || got[0] != 3 || got[1] != 3 {
		t.Errorf("ratios = %v, want [3 3]", got)
	}
}

func TestCheckSelection(t *testing.T) {
	taken := map[int]bool{7: true}
	cases := []struct {
		name string
		sel  []int
		want string // substring of the error, "" for valid
	}{
		{"valid", []int{0, 3, 9}, ""},
		{"too few", []int{0, 3}, "selected 2 indices, want 3"},
		{"too many", []int{0, 3, 4, 5}, "selected 4 indices, want 3"},
		{"duplicate", []int{0, 3, 3}, "twice"},
		{"negative", []int{0, -1, 3}, "out of range"},
		{"past the end", []int{0, 3, 10}, "out of range"},
		{"already taken", []int{0, 7, 3}, "already labeled"},
	}
	for _, c := range cases {
		err := checkSelection(c.sel, 3, 10, taken)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestReportCountsFailedRounds(t *testing.T) {
	r := newReport()
	r.round(nil)
	r.round(errCheck)
	r.round(errors.New("solver failed"))
	if r.attempted != 3 || r.failed != 2 || len(r.failures) != 2 {
		t.Errorf("attempted %d failed %d failures %v, want 3, 2 and two messages", r.attempted, r.failed, r.failures)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the command prints
// in step with the contract at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", what, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q; the command has it in %q (listed: %v)", what, m.Name, m.Unit, u, ok)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not one the command runs", w.Name)
		}
	}
}
