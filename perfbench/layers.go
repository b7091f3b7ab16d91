package main

import (
	"sort"
	"sync"

	"repro/internal/perfmodel"
	"repro/internal/timing"
)

// layerLog collects layer values per round. Concurrent ranks report the
// same name for one round; the log keeps the largest, the slowest rank's.
type layerLog struct {
	mu     sync.Mutex
	rounds map[int]map[string]float64
}

func newLayerLog() *layerLog { return &layerLog{rounds: map[int]map[string]float64{}} }

func (l *layerLog) put(round int, name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.rounds[round]
	if m == nil {
		m = map[string]float64{}
		l.rounds[round] = m
	}
	if old, ok := m[name]; !ok || v > old {
		m[name] = v
	}
}

// byRound returns name's value for every round that has one.
func (l *layerLog) byRound(name string) map[int]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[int]float64{}
	for r, m := range l.rounds {
		if v, ok := m[name]; ok {
			out[r] = v
		}
	}
	return out
}

// values returns the map's values ordered by round.
func values(m map[int]float64) []float64 {
	rounds := make([]int, 0, len(m))
	for r := range m {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = m[r]
	}
	return out
}

// ratios returns num[r]/den[r] for every round in both maps.
func ratios(num, den map[int]float64) []float64 {
	q := map[int]float64{}
	for r, v := range num {
		if d, ok := den[r]; ok && d > 0 {
			q[r] = v / d
		}
	}
	return values(q)
}

// recordSolve logs what one rank's RELAX and ROUND returned for a round —
// the phase split from their Timings, the iteration counts — and
// perfmodel's prediction for the same shape and iteration counts.
func recordSolve(log *layerLog, round int, m perfmodel.Machine, sh shape, iters, cgIters int, relax, rnd *timing.Phases) {
	log.put(round, "firal.relax.precond_s", relax.Seconds("precond"))
	log.put(round, "firal.relax.cg_s", relax.Seconds("cg"))
	log.put(round, "firal.relax.gradient_s", relax.Seconds("gradient"))
	log.put(round, "firal.round.objective_s", rnd.Seconds("objective"))
	log.put(round, "firal.round.eig_s", rnd.Seconds("eig"))
	// The objective phase is exactly the b RoundState.Scores calls.
	log.put(round, "firal.scores_s", rnd.Seconds("objective")/float64(sh.b))
	log.put(round, "firal.relax_iterations", float64(iters))
	log.put(round, "krylov.cg_iterations", float64(cgIters))
	log.put(round, "distfiral.comm_s", relax.Seconds("comm")+rnd.Seconds("comm"))
	p := predict(m, sh, iters, cgIters)
	log.put(round, "pred.relax", p.relax)
	log.put(round, "pred.round", p.round)
	log.put(round, "pred.comm", p.comm)
}

// solverLogged are the recordSolve names reported as per-layer metrics.
var solverLogged = []string{
	"firal.relax.precond_s", "firal.relax.cg_s", "firal.relax.gradient_s",
	"firal.round.objective_s", "firal.round.eig_s", "firal.scores_s",
	"firal.relax_iterations", "krylov.cg_iterations", "distfiral.comm_s",
}

// reportSolver sets the RELAX/ROUND per-layer metrics: span times of the
// "firal.relax" and "firal.round" spans, the logged phase split and
// counts, and measured/predicted ratios, each a median over rounds.
func reportSolver(r *report, spans []span, log *layerLog) {
	self := selfTimes(spans)
	relax := perRound(spans, self, "firal.relax")
	rnd := perRound(spans, self, "firal.round")
	r.setSample("firal.relax_s", summarize(values(relax)))
	r.setSample("firal.round_s", summarize(values(rnd)))
	for _, name := range solverLogged {
		r.setSample(name, summarize(values(log.byRound(name))))
	}
	r.setSample("perfmodel.relax_ratio", summarize(ratios(relax, log.byRound("pred.relax"))))
	r.setSample("perfmodel.round_ratio", summarize(ratios(rnd, log.byRound("pred.round"))))
	r.setSample("perfmodel.comm_ratio", summarize(ratios(log.byRound("distfiral.comm_s"), log.byRound("pred.comm"))))
}
