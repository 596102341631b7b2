package sim

import (
	"math"
	"testing"
)

// requireResetState asserts, structurally, the state a full walk of the ring
// left: reset now visits only occupied buckets, so nothing may survive in
// one it skipped. Beyond the lengths and counters, no slot of any backing
// array may still hold a closure — a pooled engine would pin whatever it
// captured until the slot's next use — and no bucket slot may hold anything.
func requireResetState(t *testing.T, w *wheelQueue) {
	t.Helper()
	for p, b := range w.buckets {
		if len(b) != 0 {
			t.Fatalf("bucket %d holds %d events after reset", p, len(b))
		}
		for j, ev := range b[:cap(b)] {
			if ev.fn != nil || ev.at != 0 || ev.seq != 0 || ev.subject != 0 || ev.kind != 0 {
				t.Fatalf("bucket %d slot %d still holds %+v after reset", p, j, ev)
			}
		}
	}
	for wi, word := range w.occupied {
		if word != 0 {
			t.Fatalf("occupied[%d] = %#x after reset", wi, word)
		}
	}
	if w.inWheel != 0 || w.spills != 0 || len(w.overflow) != 0 || len(w.ready) != 0 || w.readyPos != 0 {
		t.Fatalf("after reset: inWheel=%d spills=%d overflow=%d ready=%d readyPos=%d, want all 0",
			w.inWheel, w.spills, len(w.overflow), len(w.ready), w.readyPos)
	}
	for name, evs := range map[string][]event{"ready": w.ready, "overflow": w.overflow, "gather": w.gather} {
		for j, ev := range evs[:cap(evs)] {
			if ev.fn != nil {
				t.Fatalf("%s slot %d still pins a closure after reset", name, j)
			}
		}
	}
	if w.base != 0 || w.cur != 0 || w.width != wheelInitWidth || !math.IsInf(w.overflowMin, 1) {
		t.Fatalf("after reset: base=%g cur=%d width=%g overflowMin=%g, want the initial grid",
			w.base, w.cur, w.width, w.overflowMin)
	}
}

// TestWheelResetPostCondition leaves the wheel in each state a pooled
// engine's previous run can leave it in, resets, and requires both the
// structural post-state and the reuse contract (a fresh engine's trace).
func TestWheelResetPostCondition(t *testing.T) {
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
		dirty func(t *testing.T, eng *Engine, w *wheelQueue)
	}{
		{"clean drain", func(t *testing.T, eng *Engine, w *wheelQueue) {
			spread(eng, 2000, 30)
			eng.Run()
			if w.len() != 0 {
				t.Fatalf("%d events pending after Run", w.len())
			}
		}},
		{"abandoned in ready, ring and overflow", func(t *testing.T, eng *Engine, w *wheelQueue) {
			spread(eng, 600, 3)
			eng.At(1e9, func() {}) // beyond any horizon this grid reaches
			eng.RunUntil(1.5)
			// Same-instant events share the frontier's dispatch run, so
			// stopping short of them leaves ready non-empty.
			for i := 0; i < 8; i++ {
				eng.After(0, func() {})
			}
			if len(w.ready)-w.readyPos == 0 || w.inWheel == 0 || len(w.overflow) == 0 {
				t.Fatalf("want events left in all three tiers, have ready=%d ring=%d overflow=%d",
					len(w.ready)-w.readyPos, w.inWheel, len(w.overflow))
			}
		}},
		{"ring grown past 4096 buckets", func(t *testing.T, eng *Engine, w *wheelQueue) {
			spread(eng, 40000, 50)
			eng.RunUntil(20)
			if len(w.buckets) < 4096 || w.inWheel == 0 {
				t.Fatalf("ring has %d buckets holding %d events, want ≥ 4096 and some left", len(w.buckets), w.inWheel)
			}
		}},
		{"panic mid-dispatch", func(t *testing.T, eng *Engine, w *wheelQueue) {
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
			if w.inWheel == 0 {
				t.Fatal("the panic left nothing in the ring: the reset check below proves nothing")
			}
		}},
	}
	want := reuseProgram(NewEngine())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			w := eng.q.(*wheelQueue)
			tc.dirty(t, eng, w)
			ring := len(w.buckets)
			eng.Reset()
			requireResetState(t, w)
			if len(w.buckets) != ring {
				t.Fatalf("reset resized the ring %d → %d buckets", ring, len(w.buckets))
			}
			requireSameTrace(t, reuseProgram(eng), want)
			// And again from the state the replay itself left.
			eng.Reset()
			requireResetState(t, w)
		})
	}
}
