package sim

import (
	"math"
	"testing"
)

// requireZeroSlots asserts that no slot of evs holds anything: a pooled
// engine must pin no dispatched closure and carry no stale key into its next
// run.
func requireZeroSlots(t *testing.T, what string, evs []event) {
	t.Helper()
	for i, ev := range evs {
		if ev.fn != nil || ev.at != 0 || ev.seq != 0 || ev.subject != 0 || ev.kind != 0 {
			t.Fatalf("%s: slot %d still holds %+v", what, i, ev)
		}
	}
}

// TestHeapResetPostCondition leaves the engine in each state a pooled
// engine's previous run can leave it in and requires the heap's post-
// condition: every slot past the heap's length is zero at once (pop zeroes
// the slot it vacates), and every slot through the backing array's capacity
// is zero after Reset. A reset engine must then replay a fresh one's trace.
func TestHeapResetPostCondition(t *testing.T) {
	// spread schedules n mixed events over [0, span) seconds.
	spread := func(eng *Engine, n int, span float64) {
		eng.SetSink(dropSink{})
		for i := 0; i < n; i++ {
			at := span * float64(i) / float64(n)
			if i%2 == 0 {
				eng.Emit(at, 1, int32(i))
			} else {
				eng.At(at, func() {})
			}
		}
	}
	cases := []struct {
		name  string
		dirty func(t *testing.T, eng *Engine)
	}{
		{"clean drain", func(t *testing.T, eng *Engine) {
			spread(eng, 2000, 30)
			eng.Run()
		}},
		{"abandoned mid-run", func(t *testing.T, eng *Engine) {
			spread(eng, 600, 3)
			eng.RunUntil(1.5)
			if len(eng.q) == 0 {
				t.Fatal("the run left nothing in the heap: the reset check below proves nothing")
			}
		}},
		{"grown past 4096 slots", func(t *testing.T, eng *Engine) {
			spread(eng, 40000, 50)
			eng.RunUntil(20)
			if cap(eng.q) < 4096 || len(eng.q) == 0 {
				t.Fatalf("heap has %d slots holding %d events, want ≥ 4096 and some left", cap(eng.q), len(eng.q))
			}
		}},
		{"panic mid-dispatch", func(t *testing.T, eng *Engine) {
			spread(eng, 600, 3)
			eng.At(1.5, func() { eng.After(math.NaN(), func() {}) })
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the NaN delay did not panic")
					}
				}()
				eng.Run()
			}()
			if len(eng.q) == 0 {
				t.Fatal("the panic left nothing in the heap: the reset check below proves nothing")
			}
		}},
	}
	want := reuseProgram(t, NewEngine())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			tc.dirty(t, eng)
			requireZeroSlots(t, "past the heap's length", eng.q[len(eng.q):cap(eng.q)])
			slots := cap(eng.q)
			eng.Reset()
			requireZeroSlots(t, "after Reset", eng.q[:cap(eng.q)])
			if cap(eng.q) != slots {
				t.Fatalf("Reset reallocated the heap: %d → %d slots", slots, cap(eng.q))
			}
			requireSameTrace(t, reuseProgram(t, eng), want)
			requireZeroSlots(t, "after the replay drained", eng.q[:cap(eng.q)])
			eng.Reset()
			requireZeroSlots(t, "after the second Reset", eng.q[:cap(eng.q)])
		})
	}
}
