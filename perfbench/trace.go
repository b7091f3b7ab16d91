package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no spans). Parent is the id of the
// enclosing span, 0 for a root; Round ties the spans of one round
// together; Rank tells apart the concurrent spans of distributed ranks.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Round  int     `json:"round"`
	Rank   int     `json:"rank"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.origin).Seconds() }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, round, rank int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round, Rank: rank, Start: t.at(now), End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = t.at(now)
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the closed spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in seconds, by span id: its
// duration minus the part of its interval that its children cover.
// Children of one span may overlap each other (concurrent ranks), so the
// covered part is the length of the union of their intervals, clipped to
// the parent's.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][][2]float64{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]float64{lo, hi})
			}
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - unionLength(kids[s.ID])
	}
	return self
}

// unionLength returns the total length covered by the intervals.
func unionLength(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sorted := append([][2]float64(nil), iv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	total := 0.0
	lo, hi := sorted[0][0], sorted[0][1]
	for _, v := range sorted[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
			continue
		}
		hi = max(hi, v[1])
	}
	return total + hi - lo
}

// perRound returns, by round, the self time of the spans named name:
// summed within a rank, then the slowest rank's, since the slowest rank
// sets a distributed round's time.
func perRound(spans []span, self map[int]float64, name string) map[int]float64 {
	type key struct{ round, rank int }
	sums := map[key]float64{}
	for _, s := range spans {
		if s.Name == name {
			sums[key{s.Round, s.Rank}] += self[s.ID]
		}
	}
	slowest := map[int]float64{}
	for k, v := range sums {
		slowest[k.round] = max(slowest[k.round], v)
	}
	return slowest
}
