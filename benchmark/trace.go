package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test records nothing). Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused this one, -1 for a root; spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code path serves traced and untraced runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// durationsMs returns the duration in milliseconds of every span called name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children that overlap each
// other are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// checkNesting reports the first span that is unfinished or lies outside
// its parent.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) has no end", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Parent >= i || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
	}
	return nil
}

// write stores the spans, with their self times, as JSON.
func (t *tracer) write(path string) error {
	type out struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, self[i]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
