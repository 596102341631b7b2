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
// The general queue is a binary min-heap on (at, seq). Beside it sit
// monotone lanes (lane.go): a FIFO per producer whose emits are already in
// (at, seq) order, merged with the heap's head at dispatch. A station's
// completions ride one, so FIFO traffic never pays for a priority queue
// (see DESIGN §15–16).
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
	q    []event // the general queue: a binary min-heap on (at, seq)
	sink EventSink

	// lanes are the open monotone lanes; laneSeq counts the events lanes
	// have accepted.
	lanes   []lane
	laneSeq uint64
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to time zero with no pending events, no open
// lanes and no sink, retaining the heap's and the lane rings' grown
// capacity. Burst-heavy callers pool one engine across runs; a reset engine
// is indistinguishable from a fresh one (same clock, same sequence counter,
// same dispatch order).
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.sink = nil
	e.q = e.q[:0]
	e.lanes = e.lanes[:0]
	e.laneSeq = 0
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

// Emit schedules an event at absolute virtual time t: when the clock
// reaches t the registered sink's Dispatch(kind, subject) runs. The event is
// a plain word in the queue — no allocation. Emitting with no sink
// registered panics (the event could never dispatch).
func (e *Engine) Emit(t float64, kind uint8, subject int32) {
	e.push(event{at: t, seq: e.stamp(t), kind: kind, subject: subject})
}

// stamp validates an event's time and issues its sequence number.
func (e *Engine) stamp(t float64) uint64 {
	if e.sink == nil {
		panic("sim: Emit with no EventSink registered (call SetSink first)")
	}
	e.checkAt(t)
	e.seq++
	return e.seq
}

// EmitAfter schedules an event d seconds of virtual time from now.
// Negative or non-finite delays panic, as does an unregistered sink.
func (e *Engine) EmitAfter(d float64, kind uint8, subject int32) {
	checkAfter(d)
	e.Emit(e.now+d, kind, subject)
}

// Pending reports the number of events not yet dispatched.
func (e *Engine) Pending() int {
	n := len(e.q)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// Scheduled reports the number of events scheduled since the engine was
// created or last Reset, dispatched or not — the run's event budget, which
// the platform's events-per-instance gate pins.
func (e *Engine) Scheduled() uint64 { return e.seq }

// LaneScheduled reports how many of the Scheduled events rode a monotone
// lane; the remainder were pushed onto the heap.
func (e *Engine) LaneScheduled() uint64 { return e.laneSeq }

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

// next dispatches the earliest pending event — the minimum by (at, seq)
// over the lane heads and the heap's head — unless it lies beyond deadline.
// It reports whether an event was dispatched.
func (e *Engine) next(deadline float64) bool {
	var at float64
	var seq uint64
	ok := len(e.q) > 0
	if ok {
		at, seq = e.q[0].at, e.q[0].seq
	}
	src := -1 // the heap
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.n == 0 {
			continue
		}
		h := &l.ring[l.head]
		if !ok || h.at < at || (h.at == at && h.seq < seq) {
			at, seq, src, ok = h.at, h.seq, i, true
		}
	}
	if !ok || at > deadline {
		return false
	}
	e.now = at
	if src < 0 {
		ev := e.pop()
		e.sink.Dispatch(ev.kind, ev.subject)
		return true
	}
	l := &e.lanes[src]
	e.sink.Dispatch(l.kind, l.pop())
	return true
}

// Run dispatches events in time order until none remain, returning the final
// virtual time.
func (e *Engine) Run() float64 {
	for e.next(math.Inf(1)) {
	}
	return e.now
}

// RunUntil dispatches events with time ≤ deadline, then advances the clock
// to the deadline. Events scheduled beyond it stay pending. An event exactly
// at the deadline fires. A NaN deadline panics.
func (e *Engine) RunUntil(deadline float64) {
	if math.IsNaN(deadline) {
		panic("sim: non-finite RunUntil deadline NaN")
	}
	for e.next(deadline) {
	}
	if deadline > e.now {
		e.now = deadline
	}
}
