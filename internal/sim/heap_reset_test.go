package sim

import (
	"math"
	"testing"
)

// TestHeapResetPostCondition leaves the engine in each state a pooled
// engine's previous run can leave it in and requires Reset to keep the heap's
// array and the reset engine to replay a fresh one's trace, twice over: a
// slot past the heap's length holds whatever the last pop left there, and
// nothing may read it.
func TestHeapResetPostCondition(t *testing.T) {
	cases := []struct {
		name     string
		n        int // events spread over [0, span)
		span     float64
		deadline float64 // RunUntil's; 0 drains with Run
		panics   bool    // an event at span/2 schedules a NaN delay
		minSlots int     // how far the heap must have grown
	}{
		{"clean drain", 2000, 30, 0, false, 0},
		{"abandoned mid-run", 600, 3, 1.5, false, 0},
		{"grown past 4096 slots", 40000, 50, 20, false, 4096},
		{"panic mid-dispatch", 600, 3, 0, true, 0},
	}
	want := reuseProgram(t, NewEngine())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			eng.SetSink(sinkFunc(func(kind uint8, _ int32) {
				if kind == 2 {
					eng.EmitAfter(math.NaN(), 1, 0)
				}
			}))
			for i := 0; i < tc.n; i++ {
				eng.Emit(tc.span*float64(i)/float64(tc.n), 1, int32(i))
			}
			if tc.panics {
				eng.Emit(tc.span/2, 2, 0)
			}
			func() {
				defer func() {
					if r := recover(); (r != nil) != tc.panics {
						t.Fatalf("recovered %v; want a panic: %v", r, tc.panics)
					}
				}()
				if tc.deadline == 0 {
					eng.Run()
				} else {
					eng.RunUntil(tc.deadline)
				}
			}()
			if left := len(eng.q) > 0; left != (tc.deadline > 0 || tc.panics) || cap(eng.q) < tc.minSlots {
				t.Fatalf("the run left %d events in a heap of %d slots: the reset check below proves nothing", len(eng.q), cap(eng.q))
			}
			slots := cap(eng.q)
			eng.Reset()
			if cap(eng.q) != slots {
				t.Fatalf("Reset reallocated the heap: %d → %d slots", slots, cap(eng.q))
			}
			requireSameTrace(t, reuseProgram(t, eng), want)
			eng.Reset()
			requireSameTrace(t, reuseProgram(t, eng), want)
		})
	}
}
