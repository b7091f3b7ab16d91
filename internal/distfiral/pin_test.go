package distfiral

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/firal"
	"repro/internal/mpi"
)

// zHash is FNV-1a-64 over the little-endian IEEE-754 bits of z.
func zHash(z []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range z {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func sorted(s []string) []string {
	slices.Sort(s)
	return s
}

func traffic(msgs, bytes, colls int64) mpi.Stats {
	return mpi.Stats{SentMessages: msgs, SentBytes: bytes, Collectives: colls}
}

// TestSelectionBitsAndTrafficPinned pins the distributed Approx-FIRAL
// bit for bit and message for message: the selection, a hash of the
// gathered z⋄, the CG iteration total and every rank's traffic counters
// at p = 1, 2, 3, plus the serial solver's selection and z⋄. Any change
// to the arithmetic order or to the collective schedule of RELAX or
// ROUND moves one of these numbers. Every rank must also report the
// phase names perfbench and the Figs. 6–7 experiments read.
func TestSelectionBitsAndTrafficPinned(t *testing.T) {
	labeled, pool := testSets(2, 8, 60, 4, 4)
	const b = 5
	opts := firal.RelaxOptions{FixedIterations: 6, Seed: 11, Probes: 6, CGTol: 0.01}
	wantSel := []int{6, 33, 28, 46, 20}
	const wantCG = 640

	serial, err := firal.SelectApprox(context.Background(), firal.NewProblem(labeled, pool), b, firal.Options{Relax: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(serial.Selected, wantSel) {
		t.Errorf("serial selection %v, want %v", serial.Selected, wantSel)
	}
	if got := zHash(serial.Relax.Z); got != "2537a4c22fabae79" {
		t.Errorf("serial z⋄ hash %s, want 2537a4c22fabae79", got)
	}
	if serial.Relax.CGIterations != wantCG {
		t.Errorf("serial CG iterations %d, want %d", serial.Relax.CGIterations, wantCG)
	}

	for _, tc := range []struct {
		p     int
		hash  string
		stats []mpi.Stats
	}{
		{1, "2537a4c22fabae79", []mpi.Stats{traffic(0, 0, 172)}},
		{2, "29ede6ab6b7d9774", []mpi.Stats{traffic(177, 83896, 179), traffic(170, 80536, 179)}},
		{3, "e460fa7e6406b9e1", []mpi.Stats{traffic(656, 114192, 179), traffic(648, 107536, 179), traffic(644, 107376, 179)}},
	} {
		z := make([]float64, pool.N())
		sels := make([][]int, tc.p)
		cg := make([]int, tc.p)
		var mu sync.Mutex
		stats := mpi.Run(tc.p, func(c *mpi.Comm) {
			sh := MakeShard(labeled, pool, tc.p, c.Rank())
			sel, relax, round, err := Select(context.Background(), c, sh, b, 0, opts)
			if err != nil {
				t.Errorf("p=%d rank %d: %v", tc.p, c.Rank(), err)
				return
			}
			if got := sorted(relax.Timings.Names()); !slices.Equal(got, []string{"cg", "comm", "gradient", "other", "precond"}) {
				t.Errorf("p=%d rank %d: RELAX phases %v", tc.p, c.Rank(), got)
			}
			if got := sorted(round.Timings.Names()); !slices.Equal(got, []string{"comm", "eig", "objective", "other"}) {
				t.Errorf("p=%d rank %d: ROUND phases %v", tc.p, c.Rank(), got)
			}
			mu.Lock()
			copy(z[sh.PoolOffset:], relax.ZLocal)
			mu.Unlock()
			sels[c.Rank()], cg[c.Rank()] = sel, relax.CGIterations
		})
		for r := 0; r < tc.p; r++ {
			if !slices.Equal(sels[r], wantSel) {
				t.Errorf("p=%d rank %d: selection %v, want %v", tc.p, r, sels[r], wantSel)
			}
			if cg[r] != wantCG {
				t.Errorf("p=%d rank %d: CG iterations %d, want %d", tc.p, r, cg[r], wantCG)
			}
		}
		if got := zHash(z); got != tc.hash {
			t.Errorf("p=%d: z⋄ hash %s, want %s", tc.p, got, tc.hash)
		}
		if !slices.Equal(stats, tc.stats) {
			t.Errorf("p=%d: traffic %v, want %v", tc.p, stats, tc.stats)
		}
	}
}
