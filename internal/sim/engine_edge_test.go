package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// engineImpls runs every edge-case test on a fresh engine and on a pooled
// one, so each edge contract also holds after Reset. The subtest names are
// those of the two schedulers the engine had before the calendar wheel was
// deleted, kept so the suite's test names stay stable: "heap" is the fresh
// engine, "wheel" the pooled one.
var engineImpls = []struct {
	name string
	mk   func() *Engine
}{
	{"heap", NewEngine},
	{"wheel", pooledEngine},
}

// pooledEngine returns an engine Reset after a run that grew its heap past
// 4096 slots and abandoned events in it.
func pooledEngine() *Engine {
	eng := NewEngine()
	eng.SetSink(dropSink{})
	for i := 0; i < 5000; i++ {
		eng.Emit(float64(i%97), 2, int32(i))
	}
	eng.RunUntil(40)
	eng.Reset()
	return eng
}

// TestEngineZeroDelaySelfRescheduling pins the semantics of an event that
// reschedules itself with zero delay: the clock must not move, and each link
// of the chain dispatches after everything already pending at that instant
// (its seq is higher), so an interleaved same-time event fires between links.
func TestEngineZeroDelaySelfRescheduling(t *testing.T) {
	for _, impl := range engineImpls {
		t.Run(impl.name, func(t *testing.T) {
			eng := impl.mk()
			clo := newClosures(eng)
			var order []string
			const links = 50
			var chain func(k int)
			chain = func(k int) {
				clo.After(0, func() {
					order = append(order, fmt.Sprintf("chain%d@%g", k, eng.Now()))
					if k == 0 {
						// Scheduled from inside link 0, same timestamp: must
						// run before link 1, which is scheduled after it.
						clo.After(0, func() {
							order = append(order, "interleaved")
						})
					}
					if k+1 < links {
						chain(k + 1)
					}
				})
			}
			clo.At(1, func() { chain(0) })
			end := eng.Run()
			if end != 1 {
				t.Fatalf("zero-delay chain moved the clock to %g", end)
			}
			if len(order) != links+1 {
				t.Fatalf("dispatched %d events, want %d", len(order), links+1)
			}
			if order[0] != "chain0@1" || order[1] != "interleaved" || order[2] != "chain1@1" {
				t.Fatalf("zero-delay ordering broke FIFO-at-equal-time: %v", order[:3])
			}
			for k := 1; k < links; k++ {
				if order[k+1] != fmt.Sprintf("chain%d@1", k) {
					t.Fatalf("link %d out of order: %v", k, order[k+1])
				}
			}
		})
	}
}

// TestEngineRunUntilExactTimestamp pins the boundary rule: an event exactly
// at the deadline fires, one an ulp later stays pending, and the clock lands
// exactly on the deadline either way.
func TestEngineRunUntilExactTimestamp(t *testing.T) {
	for _, impl := range engineImpls {
		t.Run(impl.name, func(t *testing.T) {
			eng := impl.mk()
			clo := newClosures(eng)
			const deadline = 3.7
			after := math.Nextafter(deadline, math.Inf(1))
			var fired []float64
			clo.At(deadline, func() { fired = append(fired, eng.Now()) })
			clo.At(after, func() { fired = append(fired, eng.Now()) })
			eng.RunUntil(deadline)
			if len(fired) != 1 || fired[0] != deadline {
				t.Fatalf("events at deadline: fired %v, want exactly [%g]", fired, deadline)
			}
			if eng.Now() != deadline || eng.Pending() != 1 {
				t.Fatalf("after RunUntil: now=%g pending=%d", eng.Now(), eng.Pending())
			}
			// A second drain to the same deadline is a no-op.
			eng.RunUntil(deadline)
			if len(fired) != 1 || eng.Now() != deadline {
				t.Fatalf("repeated RunUntil re-fired or moved the clock: fired=%v now=%g", fired, eng.Now())
			}
			eng.Run()
			if len(fired) != 2 || fired[1] != after {
				t.Fatalf("ulp-later event mishandled: fired %v", fired)
			}
		})
	}
}

// TestEngineRejectsBadTimestamps is the table of scheduling inputs the engine
// must refuse loudly — each panics with a message naming the offense, on a
// fresh and on a pooled engine. Silently accepting any of them would corrupt
// queue ordering (NaN compares false with everything) or causality (the
// past). At and After are the closure adapter's (closure_test.go), which
// schedules through Emit: a closure meets the same checks as any event.
func TestEngineRejectsBadTimestamps(t *testing.T) {
	cases := []struct {
		name    string
		wantMsg string
		call    func(eng *Engine)
	}{
		{"At NaN", "non-finite time", func(e *Engine) { newClosures(e).At(math.NaN(), func() {}) }},
		{"At +Inf", "non-finite time", func(e *Engine) { newClosures(e).At(math.Inf(1), func() {}) }},
		{"At -Inf", "non-finite time", func(e *Engine) { newClosures(e).At(math.Inf(-1), func() {}) }},
		{"At past", "before now", func(e *Engine) {
			e.RunUntil(5)
			newClosures(e).At(4.999, func() {})
		}},
		{"After negative", "negative delay", func(e *Engine) { newClosures(e).After(-0.001, func() {}) }},
		{"After NaN", "non-finite delay", func(e *Engine) { newClosures(e).After(math.NaN(), func() {}) }},
		{"RunUntil NaN", "non-finite RunUntil deadline", func(e *Engine) { e.RunUntil(math.NaN()) }},
		{"Emit NaN", "non-finite time", func(e *Engine) { e.SetSink(dropSink{}); e.Emit(math.NaN(), 1, 0) }},
		{"Emit past", "before now", func(e *Engine) {
			e.SetSink(dropSink{})
			e.RunUntil(5)
			e.Emit(4.999, 1, 0)
		}},
		{"EmitAfter negative", "negative delay", func(e *Engine) { e.SetSink(dropSink{}); e.EmitAfter(-0.001, 1, 0) }},
		{"EmitAfter NaN", "non-finite delay", func(e *Engine) { e.SetSink(dropSink{}); e.EmitAfter(math.NaN(), 1, 0) }},
		{"Emit no sink", "no EventSink registered", func(e *Engine) { e.Emit(1, 1, 0) }},
	}
	for _, impl := range engineImpls {
		for _, tc := range cases {
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s did not panic", tc.name)
					}
					msg := fmt.Sprint(r)
					if !strings.Contains(msg, tc.wantMsg) {
						t.Fatalf("%s panicked with %q, want a message containing %q", tc.name, msg, tc.wantMsg)
					}
				}()
				tc.call(impl.mk())
			})
		}
	}
}

// dropSink is the no-op EventSink for edge tests that only exercise
// scheduling validation.
type dropSink struct{}

func (dropSink) Dispatch(uint8, int32) {}

// reuseProgram is the fixed mixed typed-and-closure schedule the reuse
// contract replays on a fresh engine and on a reset one.
func reuseProgram(t *testing.T, eng *Engine) []traceEntry {
	s := newSpec(t, eng)
	s.clo.SetSink(sinkFunc(func(_ uint8, subject int32) { s.dispatched(int(subject), true) }))
	rng := NewRNG(7)
	for i := 0; i < 100; i++ {
		d := rng.Float64() * 10
		if i%4 == 0 {
			s.emitAfter(d, progKindPlain, i)
			continue
		}
		s.after(d, i, nil)
	}
	return s.run()
}

func requireSameTrace(t *testing.T, got, want []traceEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("reused engine dispatched %d events, fresh %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d differs after reuse: got %+v, fresh %+v", i, got[i], want[i])
		}
	}
}

// TestEngineResetReuse pins the engine-pooling contract: after Reset, a
// reused engine is indistinguishable from a fresh one — clock at zero, no
// pending events, no sink, sequence numbering restarted — so the same
// program replays to a bit-identical trace, regardless of what the previous
// run left behind (including undispatched events abandoned mid-run).
func TestEngineResetReuse(t *testing.T) {
	for _, impl := range engineImpls {
		t.Run(impl.name, func(t *testing.T) {
			want := reuseProgram(t, NewEngine())

			eng := impl.mk()
			// Dirty the engine: advance the clock, abandon pending events,
			// leave a sink registered.
			eng.SetSink(dropSink{})
			for i := 0; i < 500; i++ {
				eng.EmitAfter(float64(i)*0.01, 1, int32(i))
				eng.EmitAfter(float64(i)*0.02, 2, int32(i))
			}
			eng.RunUntil(2.5)
			if eng.Pending() == 0 {
				t.Fatal("dirtying schedule left nothing pending: the reset check below proves nothing")
			}

			eng.Reset()
			if eng.Now() != 0 || eng.Pending() != 0 || eng.Scheduled() != 0 {
				t.Fatalf("after Reset: now=%g pending=%d scheduled=%d, want 0/0/0",
					eng.Now(), eng.Pending(), eng.Scheduled())
			}
			// Reset cleared the sink: emitting without re-registering panics.
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatal("Emit after Reset did not panic without a sink")
					}
				}()
				eng.Emit(1, 1, 0)
			}()
			requireSameTrace(t, reuseProgram(t, eng), want)
		})
	}
}

// TestEngineSlotReuseDoesNotResurrect exercises the heap's reused slots
// across generations of schedule/drain cycles: every callback fires exactly
// once, and no recycled slot replays an already-dispatched callback.
func TestEngineSlotReuseDoesNotResurrect(t *testing.T) {
	for _, impl := range engineImpls {
		t.Run(impl.name, func(t *testing.T) {
			eng := impl.mk()
			clo := newClosures(eng)
			const perGen, gens = 300, 5
			counts := make(map[int]int)
			id := 0
			for g := 0; g < gens; g++ {
				for i := 0; i < perGen; i++ {
					id++
					ev := id
					clo.After(float64(i)*1e-3, func() { counts[ev]++ })
				}
				// Drain halfway through the generation, then fully: partial
				// drains force slot recycling while events are still pending.
				eng.RunUntil(eng.Now() + float64(perGen)/2*1e-3)
				eng.Run()
			}
			if eng.Pending() != 0 {
				t.Fatalf("%d events still pending after drain", eng.Pending())
			}
			if len(counts) != perGen*gens {
				t.Fatalf("%d distinct callbacks fired, want %d", len(counts), perGen*gens)
			}
			for ev, n := range counts {
				if n != 1 {
					t.Fatalf("callback %d fired %d times — a recycled slot resurrected it", ev, n)
				}
			}
		})
	}
}
