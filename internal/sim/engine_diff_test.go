package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential harness: the wheel engine must dispatch byte-for-byte in
// the reference heap's order on any schedule. A schedule is a deterministic
// program driven by a seeded RNG — a mix of up-front events, nested
// rescheduling from inside callbacks, zero delays, far-future outliers (the
// overflow path), and partial RunUntil drains — executed against both
// engines, recording every dispatch as (id, now, pending-after).

// traceEntry is one dispatched event as observed by the harness. typed
// distinguishes sink-dispatched value events from closure callbacks, so a
// schedule that delivered the right id at the right time through the wrong
// path still fails the comparison.
type traceEntry struct {
	id      int
	now     float64
	pending int
	typed   bool
}

// Typed-event kinds of the schedule programs. Kind 1 is a plain traced
// event; kinds 2+depth respawn a nested sub-schedule from inside the sink,
// mirroring the closure path's respawn-from-callback pattern.
const (
	progKindPlain uint8 = iota + 1
	progKindRespawn0
	progKindRespawn1
	progKindRespawn2
)

// programSink receives the typed half of a schedule program. It appends to
// the same trace the closure half appends to, so one slice records the
// interleaved dispatch order across both event kinds.
type programSink struct {
	eng      *Engine
	trace    *[]traceEntry
	schedule func(depth int)
}

func (s *programSink) Dispatch(kind uint8, subject int32) {
	*s.trace = append(*s.trace, traceEntry{id: int(subject), now: s.eng.Now(), pending: s.eng.Pending(), typed: true})
	if kind >= progKindRespawn0 {
		s.schedule(int(kind-progKindRespawn0) + 1)
	}
}

// scheduleProgram runs a randomized schedule on eng and returns the
// dispatch trace. Events are a seeded mix of legacy closure callbacks
// (After) and typed value events (EmitAfter through a registered sink) in
// one program, so the trace also proves the closure adapter and the typed
// path share one (at, seq) order. All randomness comes from rng, so running
// it twice with equal-seeded RNGs yields the same program on both engines.
func scheduleProgram(eng *Engine, rng *rand.Rand, ops int) []traceEntry {
	var trace []traceEntry
	sink := &programSink{eng: eng, trace: &trace}
	eng.SetSink(sink)
	nextID := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		// Delay scale spans seven orders of magnitude so schedules cross
		// bucket, year, and overflow boundaries.
		var d float64
		switch rng.Intn(10) {
		case 0:
			d = 0 // same-timestamp FIFO and zero-delay self-rescheduling
		case 1, 2:
			d = rng.Float64() * 1e-4
		case 3, 4, 5, 6:
			d = rng.Float64()
		case 7, 8:
			d = rng.Float64() * 1e3
		default:
			d = rng.Float64() * 1e7 // far future: the overflow bucket
		}
		respawn := depth < 3 && rng.Intn(3) == 0
		if rng.Intn(3) == 0 {
			kind := progKindPlain
			if respawn {
				kind = progKindRespawn0 + uint8(depth)
			}
			eng.EmitAfter(d, kind, int32(id))
			return
		}
		eng.After(d, func() {
			trace = append(trace, traceEntry{id: id, now: eng.Now(), pending: eng.Pending()})
			if respawn {
				schedule(depth + 1)
			}
		})
	}
	sink.schedule = schedule
	for i := 0; i < ops; i++ {
		schedule(0)
		// Occasionally drain partway, exercising peek/RunUntil interleaved
		// with fresh scheduling.
		if rng.Intn(8) == 0 {
			eng.RunUntil(eng.Now() + rng.Float64()*10)
		}
	}
	eng.Run()
	return trace
}

// TestEngineDifferentialSchedules locks the wheel to the heap over many
// randomized schedules: identical dispatch traces (ids, clocks, pending
// counts) and identical final state.
func TestEngineDifferentialSchedules(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		wheel := NewEngine()
		ref := NewReferenceEngine()
		wantTrace := scheduleProgram(ref, rand.New(rand.NewSource(seed)), 120)
		gotTrace := scheduleProgram(wheel, rand.New(rand.NewSource(seed)), 120)
		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("seed %d: wheel dispatched %d events, heap %d", seed, len(gotTrace), len(wantTrace))
		}
		for i := range gotTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("seed %d: dispatch %d differs: wheel %+v, heap %+v",
					seed, i, gotTrace[i], wantTrace[i])
			}
		}
		if wheel.Now() != ref.Now() || wheel.Pending() != ref.Pending() {
			t.Fatalf("seed %d: final state differs: wheel (now=%g pending=%d), heap (now=%g pending=%d)",
				seed, wheel.Now(), wheel.Pending(), ref.Now(), ref.Pending())
		}
	}
}

// TestEngineDifferentialLockstep drives both engines one dispatch at a time
// through RunUntil(peek boundary) style stepping, comparing clocks and
// pending counts after every single event — a sharper oracle than whole-run
// trace equality when hunting a divergence.
func TestEngineDifferentialLockstep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		wheel, ref := NewEngine(), NewReferenceEngine()
		rw, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var wTrace, rTrace []traceEntry
		load := func(eng *Engine, rng *rand.Rand, trace *[]traceEntry) {
			eng.SetSink(&programSink{eng: eng, trace: trace})
			for i := 0; i < 200; i++ {
				id := i
				d := rng.Float64() * math.Pow(10, float64(rng.Intn(7))-3)
				if rng.Intn(5) == 0 {
					d = 0
				}
				// Every third event goes through the typed path, so the
				// lockstep comparison also pins the adapter's seq
				// interleaving one dispatch at a time.
				if i%3 == 0 {
					eng.EmitAfter(d, progKindPlain, int32(id))
					continue
				}
				eng.After(d, func() {
					*trace = append(*trace, traceEntry{id: id, now: eng.Now(), pending: eng.Pending()})
				})
			}
		}
		load(wheel, rw, &wTrace)
		load(ref, rr, &rTrace)
		for step := 0; ; step++ {
			wAt, wOK := wheel.q.peekAt()
			rAt, rOK := ref.q.peekAt()
			if wOK != rOK || (wOK && wAt != rAt) {
				t.Fatalf("seed %d step %d: peek differs: wheel (%g,%v) heap (%g,%v)",
					seed, step, wAt, wOK, rAt, rOK)
			}
			if !wOK {
				break
			}
			wheel.RunUntil(wAt)
			ref.RunUntil(rAt)
			if len(wTrace) != len(rTrace) {
				t.Fatalf("seed %d step %d: trace lengths diverged (%d vs %d)", seed, step, len(wTrace), len(rTrace))
			}
			for i := range wTrace {
				if wTrace[i] != rTrace[i] {
					t.Fatalf("seed %d step %d: entry %d: wheel %+v heap %+v", seed, step, i, wTrace[i], rTrace[i])
				}
			}
		}
	}
}

// TestEngineDifferentialStations runs a contended multi-station workload —
// the platform simulator's exact usage pattern — on both engines and
// requires identical completion traces.
func TestEngineDifferentialStations(t *testing.T) {
	run := func(eng *Engine) []string {
		var out []string
		sched := NewStation(eng, 2)
		build := NewStation(eng, 3)
		rng := NewRNG(99)
		for i := 0; i < 300; i++ {
			i := i
			sched.Submit(
				func() float64 { return 0.1 + 1e-4*float64(sched.Served) },
				func(start, end float64) {
					build.Submit(
						func() float64 { return 2 + rng.Float64() },
						func(bs, be float64) {
							out = append(out, fmt.Sprintf("%d:%.9f:%.9f:%.9f", i, end, bs, be))
						})
				})
		}
		eng.Run()
		return out
	}
	want := run(NewReferenceEngine())
	got := run(NewEngine())
	if len(got) != len(want) {
		t.Fatalf("wheel completed %d jobs, heap %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("completion %d differs:\nwheel %s\nheap  %s", i, got[i], want[i])
		}
	}
}

// stationSink drives the typed half of the station differential: two
// chained TypedStations whose completions follow the Complete → logic →
// Next protocol.
type stationSink struct {
	eng          *Engine
	sched, build TypedStation
	schedEnd     []float64
	out          []string
}

const (
	stKindSched uint8 = iota + 1
	stKindBuild
)

func (s *stationSink) Dispatch(kind uint8, sub int32) {
	switch kind {
	case stKindSched:
		s.sched.Complete(sub)
		s.schedEnd[sub] = s.eng.Now()
		s.build.Submit(sub)
		s.sched.Next()
	case stKindBuild:
		s.build.Complete(sub)
		s.out = append(s.out, fmt.Sprintf("%d:%.9f:%.9f", sub, s.schedEnd[sub], s.eng.Now()))
		s.build.Next()
	}
}

// TestEngineDifferentialTypedStations holds TypedStation to the closure
// Station's contract: the same contended two-stage workload, run through
// subjects-and-kinds instead of closures, must complete in the identical
// order at bit-identical times — on both engines — and account the same
// Served / BusySeconds totals.
func TestEngineDifferentialTypedStations(t *testing.T) {
	const jobs = 300
	closureRun := func(eng *Engine) ([]string, float64, float64) {
		var out []string
		sched := NewStation(eng, 2)
		build := NewStation(eng, 3)
		rng := NewRNG(99)
		for i := 0; i < jobs; i++ {
			i := i
			sched.Submit(
				func() float64 { return 0.1 + 1e-4*float64(sched.Served) },
				func(_, end float64) {
					build.Submit(
						func() float64 { return 2 + rng.Float64() },
						func(_, be float64) {
							out = append(out, fmt.Sprintf("%d:%.9f:%.9f", i, end, be))
						})
				})
		}
		eng.Run()
		return out, sched.BusySeconds, build.BusySeconds
	}
	typedRun := func(eng *Engine) ([]string, float64, float64) {
		s := &stationSink{eng: eng, schedEnd: make([]float64, jobs)}
		rng := NewRNG(99)
		s.sched.Init(eng, 2, stKindSched, jobs, func(int32) float64 {
			return 0.1 + 1e-4*float64(s.sched.Served)
		})
		s.build.Init(eng, 3, stKindBuild, jobs, func(int32) float64 {
			return 2 + rng.Float64()
		})
		eng.SetSink(s)
		for i := 0; i < jobs; i++ {
			s.sched.Submit(int32(i))
		}
		eng.Run()
		return s.out, s.sched.BusySeconds, s.build.BusySeconds
	}
	want, wantSchedBusy, wantBuildBusy := closureRun(NewReferenceEngine())
	for _, impl := range []struct {
		name string
		run  func(*Engine) ([]string, float64, float64)
		eng  *Engine
	}{
		{"closure/wheel", closureRun, NewEngine()},
		{"typed/heap", typedRun, NewReferenceEngine()},
		{"typed/wheel", typedRun, NewEngine()},
	} {
		got, schedBusy, buildBusy := impl.run(impl.eng)
		if len(got) != len(want) {
			t.Fatalf("%s completed %d jobs, closure/heap %d", impl.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s completion %d differs:\n%s: %s\nclosure/heap: %s",
					impl.name, i, impl.name, got[i], want[i])
			}
		}
		if schedBusy != wantSchedBusy || buildBusy != wantBuildBusy {
			t.Fatalf("%s busy-seconds differ: sched %g vs %g, build %g vs %g",
				impl.name, schedBusy, wantSchedBusy, buildBusy, wantBuildBusy)
		}
	}
}

// The growing-time-scale program's shape: growSlowTimers slow timers beside
// two fast ones, all delays rising growFactor× over the run.
const (
	growSlowTimers = 48
	growFactor     = 1e5
)

// growingScaleProgram is the platform simulator's time-scale drift in
// miniature: a small fixed population of self-rescheduling timers — two
// fast ones (the scheduler's share) and growSlowTimers slow ones 25× longer
// (the builders') — whose delays all grow together by growFactor× over the
// events budget, the way a station's service time grows with the work it
// has done. The population stays far below the occupancy trigger, and the
// fast timers keep the ring from ever draining, so a grid tuned to the
// opening scale leaves every slow timer beyond the horizon for most of the
// run. Even timers are typed events, odd ones closures. Every scheduling
// call goes through emit/after so a caller can observe the pushes.
func growingScaleProgram(eng *Engine, rng *rand.Rand, events int,
	emit func(d float64, kind uint8, subject int32), after func(d float64, fn func())) []traceEntry {
	var trace []traceEntry
	left := events
	delay := func(id int) float64 {
		base := 0.25 // slow
		if id < 2 {
			base = 0.01 // fast
		}
		progress := float64(events-left) / float64(events)
		return base * math.Pow(growFactor, progress) * (0.5 + rng.Float64())
	}
	var rearm func(id int)
	rearm = func(id int) {
		if left == 0 {
			return
		}
		left--
		if id%2 == 0 {
			emit(delay(id), progKindRespawn0, int32(id))
			return
		}
		after(delay(id), func() {
			trace = append(trace, traceEntry{id: id, now: eng.Now(), pending: eng.Pending()})
			rearm(id)
		})
	}
	// The typed half re-arms from the sink: programSink calls schedule(1)
	// for a respawn kind after tracing the event, and the last traced entry
	// names the timer that fired.
	eng.SetSink(&programSink{eng: eng, trace: &trace, schedule: func(int) {
		rearm(trace[len(trace)-1].id)
	}})
	for id := 0; id < growSlowTimers+2; id++ {
		rearm(id)
	}
	eng.Run()
	return trace
}

// TestEngineDifferentialGrowingTimeScale holds the wheel to the heap on
// schedules whose time scale drifts by five orders of magnitude under a
// small population — the shape that drives the overflow-churn retune
// (several grid rebuilds from inside push, mid-revolution, with live
// overflow and a part-consumed dispatch run).
func TestEngineDifferentialGrowingTimeScale(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		run := func(eng *Engine) []traceEntry {
			return growingScaleProgram(eng, rand.New(rand.NewSource(seed)), 20_000, eng.EmitAfter, eng.After)
		}
		want, got := run(NewReferenceEngine()), run(NewEngine())
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel dispatched %d events, heap %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d differs: wheel %+v, heap %+v", seed, i, got[i], want[i])
			}
		}
	}
}
