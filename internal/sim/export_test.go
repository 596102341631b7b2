package sim

import "math"

// Accessors only tests observe through: production schedules and runs
// events, and never asks how many are pending, how many were scheduled, or
// what a station holds.

// Pending reports the number of events not yet dispatched.
func (e *Engine) Pending() int { return len(e.q) }

// Scheduled reports the number of events scheduled since the engine was
// created or last Reset, dispatched or not — the run's event budget, which
// the platform's events-per-instance gate pins.
func (e *Engine) Scheduled() uint64 { return e.seq }

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

// QueueLen reports jobs waiting (not in service).
func (s *TypedStation) QueueLen() int { return len(s.queue) - s.queuePos }

// Busy reports servers currently serving.
func (s *TypedStation) Busy() int { return s.busy }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// PlaceWord sets the register so that the stream's next step returns w, the
// way to draw a chosen word. The register must be complete: the stream has
// taken at least 334 steps since it was seeded.
func (g *RNG) PlaceWord(w uint64) {
	s := &g.src
	tap, feed := (s.tap+srcLen-1)%srcLen, (s.feed+srcLen-1)%srcLen
	s.vec[feed] = int64(w) - s.vec[tap]
}
