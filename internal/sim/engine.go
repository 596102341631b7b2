// Package sim is a small deterministic discrete-event simulation engine.
//
// The serverless platform models in internal/platform and internal/funcx are
// built on it: invocations flow through queued stations (scheduler, image
// builder, image shipper, host boot) whose contention produces the scaling
// behaviour ProPack then has to rediscover by regression.
//
// Time is a float64 in seconds of virtual time. Event ordering is total:
// ties on time break on insertion sequence, so runs are reproducible.
//
// An event is a plain value — (at, seq, kind, subject) — dispatched through
// the one EventSink registered for the run, a switch over the caller's own
// kind table. Scheduling one allocates nothing, so a million-instance
// simulation is allocation-free in steady state.
//
// The pending events live in one binary min-heap of event values ordered by
// (at, seq) (see DESIGN §15).
package sim

import (
	"fmt"
	"math"
)

// event is one scheduled occurrence in virtual time: the word (kind,
// subject) the sink dispatches. Only (at, seq) participate in ordering; the
// payload is opaque to the heap.
type event struct {
	at      float64
	seq     uint64
	subject int32
	kind    uint8
}

// EventSink handles events. One sink serves a whole run: Dispatch is
// called for every event in dispatch order, with the engine's clock
// already advanced to the event's time. Implementations are expected to be
// a switch over their own kind table — a shape the compiler turns into a
// jump, keeping dispatch allocation-free and branch-predictable.
type EventSink interface {
	Dispatch(kind uint8, subject int32)
}

// Engine owns the virtual clock and the pending events. Use NewEngine.
type Engine struct {
	now  float64
	seq  uint64
	q    []event // the pending events: a binary min-heap on (at, seq)
	sink EventSink
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to time zero with no pending events and no sink,
// retaining the heap's grown capacity. Burst-heavy callers pool one engine
// across runs; a reset engine is indistinguishable from a fresh one (same
// clock, same sequence counter, same dispatch order).
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.sink = nil
	e.q = e.q[:0]
}

// SetSink registers the handler for events. It must be called before the
// first Emit of a run and must not be swapped while events are pending — the
// sink is the run's kind table, not a per-event callback.
func (e *Engine) SetSink(s EventSink) { e.sink = s }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// checkAt validates an absolute timestamp. Scheduling at a non-finite time
// (NaN, ±Inf) or in the past panics — silently accepting either would
// corrupt the queue's ordering invariants or causality. (NaN compares false
// against everything, so before this check existed a NaN timestamp would sit
// in the heap violating its invariant and scramble the dispatch order of
// innocent neighbours.)
func (e *Engine) checkAt(t float64) {
	checkFinite(t)
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, e.now))
	}
}

func checkFinite(t float64) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %g", t))
	}
}

// checkAfter validates a relative delay. Negative or non-finite delays
// panic.
func checkAfter(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	if math.IsNaN(d) {
		panic("sim: non-finite delay NaN")
	}
}

// TimerAt returns from+d, the instant a d-second timer set at virtual time
// from fires, after exactly the validation EmitAfter applies to a scheduled
// timer: a negative or NaN delay panics, as does a non-finite instant. It is
// for callers that resolve a timer arithmetically instead of scheduling it —
// legitimate only when the timer's handler would touch no state another
// event reads, so that dropping the event cannot reorder anything (DESIGN
// §16) — and keeps a malformed duration as loud as it is on the evented
// path.
func TimerAt(from, d float64) float64 {
	checkAfter(d)
	t := from + d
	checkFinite(t)
	return t
}

// TimersAt sets dst[i] = TimerAt(from[i], d[i]) for every row of a block, in
// order; dst may be d. Each row takes one inline test instead of TimerAt's
// two out-of-line checks, and a malformed row goes to TimerAt itself, so the
// block panics where that loop would, with its message and the rows before
// it written. from and d must be at least as long as dst.
func TimersAt(dst, from, d []float64) {
	from, d = from[:len(dst)], d[:len(dst)]
	for i := range dst {
		di := d[i]
		t := from[i] + di
		if !(di >= 0 && t-t == 0) { // t−t is 0 exactly when t is finite
			TimerAt(from[i], di) // panics
		}
		dst[i] = t
	}
}

// Emit schedules an event at absolute virtual time t: when the clock
// reaches t the registered sink's Dispatch(kind, subject) runs. The event is
// a plain word in the queue — no allocation. Emitting with no sink
// registered panics (the event could never dispatch).
func (e *Engine) Emit(t float64, kind uint8, subject int32) {
	if e.sink == nil {
		panic("sim: Emit with no EventSink registered (call SetSink first)")
	}
	e.checkAt(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, kind: kind, subject: subject})
}

// EmitAfter schedules an event d seconds of virtual time from now.
// Negative or non-finite delays panic, as does an unregistered sink.
func (e *Engine) EmitAfter(d float64, kind uint8, subject int32) {
	checkAfter(d)
	e.Emit(e.now+d, kind, subject)
}

// before is the engine's total order: time, then insertion sequence.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds ev to the heap, sifting it up from the new last slot.
func (e *Engine) push(ev event) {
	e.q = append(e.q, ev)
	q := e.q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&ev, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the heap's earliest event, which must exist. The
// last event sifts down from the root.
func (e *Engine) pop() event {
	q := e.q
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	e.q = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && before(&q[c+1], &q[c]) {
			c++
		}
		if !before(&q[c], &last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// next dispatches the earliest pending event unless it lies beyond
// deadline. It reports whether an event was dispatched.
func (e *Engine) next(deadline float64) bool {
	if len(e.q) == 0 || e.q[0].at > deadline {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.sink.Dispatch(ev.kind, ev.subject)
	return true
}

// Run dispatches events in time order until none remain, returning the final
// virtual time.
func (e *Engine) Run() float64 {
	for e.next(math.Inf(1)) {
	}
	return e.now
}
