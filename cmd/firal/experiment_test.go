package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// TestExperimentsPrintTitles runs every `firal experiment` name in process
// at a tiny size and checks the title line it prints.
func TestExperimentsPrintTitles(t *testing.T) {
	cases := []struct {
		args  []string
		title string
	}{
		{[]string{"accuracy", "-dataset", "MNIST", "-scale", "0.01", "-trials", "1", "-rounds", "1",
			"-selectors", "random,approx-firal", "-relaxiters", "2"},
			"# MNIST — evaluation accuracy vs labeled samples"},
		{[]string{"accuracy", "-table5"}, "# Table V — dataset summary"},
		{[]string{"cg", "-dataset", "CIFAR-10", "-scale", "0.01", "-maxiter", "5", "-maxcond", "0"},
			"# Fig. 1 — CG convergence on CIFAR-10"},
		{[]string{"scaling", "-step", "round", "-ranks", "1,2", "-n", "400", "-d", "8", "-c", "4", "-b", "1"},
			"# Fig. 7 — ROUND strong scaling (d=8 c=4), per selected point"},
		{[]string{"sensitivity", "-dataset", "CIFAR-10", "-scale", "0.01", "-iters", "2", "-exact=false"},
			"# Fig. 4 — RELAX objective vs iteration on CIFAR-10"},
		{[]string{"single", "-step", "relax", "-sweep", "d", "-values", "8", "-n", "400", "-ncg", "2", "-c", "4"},
			"# Fig. 5 — RELAX solve, sweep over d (n=400, s=10, nCG=2)"},
		{[]string{"time", "-tables"}, "Table II (n=5000 d=50 c=50 b=50 nrelax=100 nCG=50 s=10)"},
		{[]string{"time", "-dataset", "ImageNet-50", "-scale", "0.01", "-relaxiters", "1", "-d", "8", "-c", "4"},
			"# Table VI — Exact-FIRAL vs Approx-FIRAL wall-clock (seconds)"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if err := runExperiment(context.Background(), tc.args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if first, _, _ := strings.Cut(out.String(), "\n"); first != tc.title {
			t.Errorf("%v: first line %q, want %q", tc.args, first, tc.title)
		}
	}
}

// TestExperimentErrors checks that bad input comes back as an error rather
// than exiting the process.
func TestExperimentErrors(t *testing.T) {
	err := runExperiment(context.Background(), []string{"fig9"}, io.Discard)
	if err == nil {
		t.Fatal("unknown experiment: nil error")
	}
	for _, name := range []string{"accuracy", "cg", "scaling", "sensitivity", "single", "time"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error %q does not list %q", err, name)
		}
	}
	for _, args := range [][]string{
		{"single", "-values", "8,x"},
		{"scaling", "-ranks", "1,,2"},
		{"cg", "-dataset", "no-such-dataset"},
	} {
		if err := runExperiment(context.Background(), args, io.Discard); err == nil {
			t.Errorf("%v: nil error", args)
		}
	}
}
