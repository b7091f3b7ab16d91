package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/firal"
)

// TestCheckpointRoundTrip pins that the binary codec restores weights and
// objective history bit-for-bit — including values a text format would
// mangle (subnormals, exact dyadic fractions, huge magnitudes).
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "round.ckpt")
	ck := &firal.RelaxCheckpoint{
		Iteration:    17,
		Done:         true,
		CGIterations: 423,
		Z:            []float64{0.1, 1.0 / 3.0, math.SmallestNonzeroFloat64, 1e300, 0.25},
		FHist:        []float64{3.75, math.Pi, -1e-12},
	}
	if err := writeCheckpoint(path, 5, ck); err != nil {
		t.Fatal(err)
	}
	round, got, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if round != 5 || got.Iteration != 17 || !got.Done || got.CGIterations != 423 {
		t.Fatalf("header mismatch: round=%d ck=%+v", round, got)
	}
	for i, z := range ck.Z {
		if math.Float64bits(got.Z[i]) != math.Float64bits(z) {
			t.Errorf("Z[%d]: %x != %x", i, math.Float64bits(got.Z[i]), math.Float64bits(z))
		}
	}
	for i, f := range ck.FHist {
		if math.Float64bits(got.FHist[i]) != math.Float64bits(f) {
			t.Errorf("FHist[%d] bits differ", i)
		}
	}
}

// TestCheckpointCorruption pins that truncated or foreign files are
// rejected with the path in the message, never partially decoded.
func TestCheckpointCorruption(t *testing.T) {
	dir := t.TempDir()

	bogus := filepath.Join(dir, "bogus.ckpt")
	os.WriteFile(bogus, []byte("not a checkpoint at all"), 0o644)
	if _, _, err := readCheckpoint(bogus); err == nil || !strings.Contains(err.Error(), bogus) {
		t.Fatalf("bogus file: %v", err)
	}

	path := filepath.Join(dir, "round.ckpt")
	ck := &firal.RelaxCheckpoint{Iteration: 3, Z: make([]float64, 100), FHist: []float64{1, 2, 3}}
	if err := writeCheckpoint(path, 1, ck); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-40], 0o644)
	if _, _, err := readCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint decoded without error")
	}
}

// hugeCountHeader is a checkpoint header whose weight count is 2⁶¹:
// 8·n wraps to 0, the overflow a naive off+8·n bound check misses.
func hugeCountHeader() []byte {
	raw := []byte(ckptMagic)
	raw = binary.LittleEndian.AppendUint32(raw, 1)     // round
	raw = binary.LittleEndian.AppendUint32(raw, 2)     // iteration
	raw = append(raw, 0)                               // done
	raw = binary.LittleEndian.AppendUint64(raw, 3)     // CG iterations
	raw = binary.LittleEndian.AppendUint64(raw, 1<<61) // weight count
	return append(raw, make([]byte, 16)...)
}

// TestCheckpointHugeCountRejected pins that a weight count whose byte
// size overflows int is reported as truncation, not a makeslice panic.
func TestCheckpointHugeCountRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "round.ckpt")
	if err := os.WriteFile(path, hugeCountHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCheckpoint(path); err == nil || !strings.Contains(err.Error(), "truncated weights") {
		t.Fatalf("2^61 weight count: err = %v, want truncated weights", err)
	}
}

// FuzzReadCheckpoint: the decoder never panics on arbitrary bytes, never
// allocates more float storage than the input holds, and every value it
// accepts re-encodes to bytes that decode back to the same value.
func FuzzReadCheckpoint(f *testing.F) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	encodeCheckpoint(w, 4, &firal.RelaxCheckpoint{
		Iteration: 7, Done: true, CGIterations: 90,
		Z: []float64{0.5, math.SmallestNonzeroFloat64, -0.0}, FHist: []float64{1, math.Inf(1)},
	})
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(hugeCountHeader())
	f.Fuzz(func(t *testing.T, raw []byte) {
		round, ck, err := decodeCheckpoint("fuzz.ckpt", raw)
		if err != nil {
			return
		}
		if floats := cap(ck.Z) + cap(ck.FHist); 8*floats > len(raw) {
			t.Fatalf("decoded %d floats (%d bytes) from %d input bytes", floats, 8*floats, len(raw))
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		encodeCheckpoint(w, round, ck)
		w.Flush()
		round2, ck2, err := decodeCheckpoint("fuzz.ckpt", buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		if round2 != round || ck2.Iteration != ck.Iteration || ck2.Done != ck.Done || ck2.CGIterations != ck.CGIterations {
			t.Fatalf("header round trip: round %d %+v, want round %d %+v", round2, ck2, round, ck)
		}
		for _, p := range [][2][]float64{{ck2.Z, ck.Z}, {ck2.FHist, ck.FHist}} {
			if len(p[0]) != len(p[1]) {
				t.Fatalf("round trip length %d, want %d", len(p[0]), len(p[1]))
			}
			for i := range p[1] {
				if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
					t.Fatalf("round trip element %d: %#x, want %#x", i, math.Float64bits(p[0][i]), math.Float64bits(p[1][i]))
				}
			}
		}
	})
}
