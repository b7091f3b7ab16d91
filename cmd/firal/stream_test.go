package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	pub "repro"
	"repro/internal/dataset"
	"repro/internal/firal"
	"repro/internal/server"
)

// TestStreamSelectExactReturnsTypedError pins the CLI entry point of the
// residency contract: `firal -shards … -select exact` (and the canonical
// registry spelling) must fail with the solver's typed
// firal.ErrResidentPool — so scripts can distinguish "this mode cannot
// exist" from an I/O or flag error — before any file is opened.
func TestStreamSelectExactReturnsTypedError(t *testing.T) {
	for _, sel := range []string{"exact", "Exact-FIRAL", "EXACT"} {
		_, err := streamSelect(streamConfig{selector: sel})
		if !errors.Is(err, firal.ErrResidentPool) {
			t.Fatalf("-select %s over shards: err = %v, want firal.ErrResidentPool", sel, err)
		}
	}
	// Non-exact unknown selectors keep the generic usage error.
	if _, err := streamSelect(streamConfig{selector: "entropy"}); err == nil || errors.Is(err, firal.ErrResidentPool) {
		t.Fatalf("-select entropy over shards: err = %v, want a generic usage error", err)
	}
}

// TestStreamSelectorResolution pins that the streaming path resolves
// names through the selector registry: aliases reach the streaming
// solvers instead of being rejected by literal string-matching, and an
// unknown name fails with the full registry listing — the same
// experience as `firal -select help`.
func TestStreamSelectorResolution(t *testing.T) {
	// Registry aliases of the streaming-capable selectors must pass name
	// resolution. With no -labeled file they fail at the next check, whose
	// message names the real gap — not an "unsupported selector" error.
	for _, sel := range []string{"firal", "approx", "Approx-FIRAL", "dist", "distributed-firal"} {
		_, err := streamSelect(streamConfig{selector: sel})
		if err == nil || !strings.Contains(err.Error(), "-labeled") {
			t.Fatalf("-select %s: err = %v, want the missing -labeled error after alias resolution", sel, err)
		}
	}
	// Unknown names list every registered strategy.
	_, err := streamSelect(streamConfig{selector: "gradient-boost"})
	if err == nil {
		t.Fatal("unknown selector accepted")
	}
	for _, name := range pub.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-selector error %q does not list %s", err, name)
		}
	}
}

// TestStreamSelectMatchesServedRound pins that `firal -shards` and
// firald run one selection pipeline: over the same shard, labeled set and
// solver settings, the CLI seeded with round 1's seed (session seed +
// 7919) selects exactly what an in-process firald's first round selects,
// serially and on 3 in-process ranks.
func TestStreamSelectMatchesServedRound(t *testing.T) {
	const n, d, c, budget, sessionSeed = 300, 5, 3, 4, 3
	dir := t.TempDir()
	ds := dataset.Generate(dataset.Config{
		Classes: c, Dim: d, PoolSize: n, EvalSize: c, InitPerClass: 3,
		Rounds: 1, Budget: 1,
	}, 21)
	shard := filepath.Join(dir, "pool.shard")
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
	labX := make([][]float64, ds.LabeledX.Rows)
	var csv strings.Builder
	for i := range labX {
		labX[i] = ds.LabeledX.Row(i)
		for _, v := range labX[i] {
			csv.WriteString(strconv.FormatFloat(v, 'g', -1, 64) + ",")
		}
		csv.WriteString(strconv.Itoa(ds.LabeledY[i]) + "\n")
	}
	labeledCSV := filepath.Join(dir, "seed.csv")
	if err := os.WriteFile(labeledCSV, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Config{DataDir: filepath.Join(dir, "daemon"), Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path string, body, out any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	served := func(selector string) []int {
		t.Helper()
		var sess struct {
			ID string `json:"id"`
		}
		post("/v1/sessions", map[string]any{
			"shards":      []string{shard},
			"labeled":     map[string]any{"x": labX, "y": ds.LabeledY},
			"seed":        sessionSeed,
			"selector":    selector,
			"probes":      4,
			"cgtol":       0.1,
			"relax_iters": 5,
		}, &sess)
		post("/v1/sessions/"+sess.ID+"/rounds", map[string]any{"budget": budget}, &struct{}{})
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(ts.URL + "/v1/sessions/" + sess.ID + "/rounds/1")
			if err != nil {
				t.Fatal(err)
			}
			var rm server.RoundMeta
			err = json.NewDecoder(resp.Body).Decode(&rm)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			switch rm.Status {
			case server.RoundDone:
				return rm.Selected
			case server.RoundFailed, server.RoundInterrupted:
				t.Fatalf("%s: served round ended %s: %s", selector, rm.Status, rm.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: served round still %s", selector, rm.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	for _, selector := range []string{"approx-firal", "dist-firal"} {
		cli, err := streamSelect(streamConfig{
			shards: []string{shard}, labeled: labeledCSV, labelCol: -1,
			selector: selector, ranks: 3, budget: budget, seed: sessionSeed + 7919,
			probes: 4, cgtol: 0.1, relaxIters: 5, transport: "inproc",
		})
		if err != nil {
			t.Fatalf("%s: %v", selector, err)
		}
		daemon := served(selector)
		if len(cli) != budget || !slices.Equal(cli, daemon) {
			t.Fatalf("%s: firal -shards selected %v, firald round 1 %v", selector, cli, daemon)
		}
		t.Logf("%s: both callers selected %v", selector, cli)
	}
}
