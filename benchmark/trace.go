package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Spans of one op share Op; Parent is the
// ID of the span that caused this one (0 for the op's root).
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per boundary. Probe fan-out calls the
// measurer wrapper from several goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is nanoseconds since the tracer's epoch (monotonic).
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID; end closes it. A span left open
// (EndNS == 0) is a bug the self-test looks for.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: start})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// add records an already-measured span (the serve daemon reports its stage
// spans relative to the request start, after the fact).
func (t *tracer) add(op, parent int, name string, startNS, endNS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: startNS, EndNS: endNS})
	t.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children may overlap (probe fan-out), so the
// covered part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside parent:
// in start order, each kid adds only what lies beyond the furthest end seen.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	seen := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, seen), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			seen = hi
		}
	}
	return total
}

// perOp aggregates a traced window: for every span name, the mean per op of
// total duration, self time and call count, over the ops that were traced
// (one span list per driver and window).
type perOp struct {
	ops   int
	durNS map[string]float64
	self  map[string]float64
	calls map[string]float64
}

func aggregate(lists [][]span, ops int) perOp {
	agg := perOp{ops: ops, durNS: map[string]float64{}, self: map[string]float64{}, calls: map[string]float64{}}
	if ops == 0 {
		return agg
	}
	// Span IDs are unique within one list (one driver's tracer) only.
	for _, spans := range lists {
		self := selfTimes(spans)
		for _, s := range spans {
			agg.durNS[s.Name] += float64(s.dur())
			agg.self[s.Name] += float64(self[s.ID])
			agg.calls[s.Name]++
		}
	}
	for _, m := range []map[string]float64{agg.durNS, agg.self, agg.calls} {
		for k := range m {
			m[k] /= float64(ops)
		}
	}
	return agg
}

// maxTraceFileSpans bounds the trace file; the aggregates use every span.
const maxTraceFileSpans = 20000

// writeTrace writes the first spans of a traced window to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if len(spans) > maxTraceFileSpans {
		spans = spans[:maxTraceFileSpans]
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}
