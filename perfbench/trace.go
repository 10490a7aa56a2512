package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Times are
// offsets from the start of the run; Parent is -1 for an op's root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced ops run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// rename names span id once its call has said which path it took.
func (t *tracer) rename(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Name = name
}

// durations returns the duration in ms of every span with the given name.
// It and opTotals run after the run, once no sender records spans.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// opTotals sums, per op, the durations in ms of the spans with any of the
// given names: one value per op that made such a call.
func (t *tracer) opTotals(names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	sums := map[int]float64{}
	var ops []int
	for _, s := range t.spans {
		if want[s.Name] {
			if _, ok := sums[s.Op]; !ok {
				ops = append(ops, s.Op)
			}
			sums[s.Op] += ms(s.End - s.Start)
		}
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// spanSummary aggregates the spans of one name: how often the call was
// made, its total time, and its self time (total minus child spans).
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanSummary {
	children := map[int][][2]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	by := map[string]*spanSummary{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.TotalMS += ms(s.End - s.Start)
		a.SelfMS += ms(selfTime(s.Start, s.End, children[s.ID]))
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}
