package main

import "time"

// span is one interval the benchmark records around a call into the
// system. Spans form a tree through Parent (an index into the run's span
// list, -1 at the root); Op is the id of the op the span belongs to, -1
// for set-up and checks outside any op. A span's self time is its
// duration minus that of its children.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	op    int
	open  []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// span opens a span under the innermost open one and returns its closer.
func (t *tracer) span(name string) func() {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Seconds(), Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}
