package main

// Tracing for the per-layer run. Spans are recorded from the benchmark's own
// code, around each call it makes into a layer's public API; nothing inside
// the program is instrumented. Spans stay in memory and are written out
// when the run ends.

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call. Parent is the id of the span that caused it (0 for
// a root); Op groups the spans of one benchmark operation.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix: "kernel.spawn" belongs to "kernel".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer records spans. A nil or disabled tracer records nothing and costs
// a nil check per call, so untraced operations run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

func (t *tracer) setEnabled(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its id, or 0 when tracing is off.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans)
}

// end closes span id; id 0 is a no-op.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// since returns the tracer clock's current reading, in ns.
func (t *tracer) since() int64 { return time.Since(t.t0).Nanoseconds() }

// add merges spans recorded by another process (the store-warm child) whose
// clock started offset ns after this tracer's, renumbering their parents.
func (t *tracer) add(spans []span, offset int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += offset
		s.End += offset
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns every closed span's duration in ms, by name.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		if s.End > 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each layer's self time in ms: a span's duration minus the
// part its child spans cover, summed over the layer's spans.
func selfTimes(spans []span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if s.End > 0 {
			out[s.layer()] += float64(s.End-s.Start-child[i]) / 1e6
		}
	}
	return out
}

// writeSpans writes spans as a JSON array in recording order: a span's id is
// its position plus one, which is what Parent refers to.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
