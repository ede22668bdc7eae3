package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run: a layer call, a
// request or an operation. Spans of one operation share Op; Parent is the
// ID of the span that caused this one (-1 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same helpers.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: start})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// selfTime returns a span's duration minus the part of its interval that
// its child spans cover (overlapping children are counted once).
func selfTime(spans []span, id int) float64 {
	s := spans[id]
	var iv [][2]float64
	for _, c := range spans {
		if c.Parent != s.ID || c.ID == s.ID {
			continue
		}
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return s.dur() - covered
}

// totals sums span durations by name; selfTotals sums self times by name.
func totals(spans []span) (total, self map[string]float64, count map[string]int) {
	total, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, s := range spans {
		total[s.Name] += s.dur()
		self[s.Name] += selfTime(spans, s.ID)
		count[s.Name]++
	}
	return total, self, count
}
