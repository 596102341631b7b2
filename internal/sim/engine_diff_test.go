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
			wAt, _, wOK := wheel.q.peek()
			rAt, _, rOK := ref.q.peek()
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

// laneProgram is the randomized schedule of the lane differential: a few
// lanes fed from outside and from inside dispatch, beside closure and typed
// events on the general queue. Each lane emit picks its delay relative to the
// lane's last one — later, equal, or earlier, the last of which must take the
// fallback — or zero, so lanes tie with each other and with the queue. Lane
// events re-emit onto their own or a neighbouring lane from inside the sink.
// step, when set, is called between top-level operations to drain partway.
func laneProgram(eng *Engine, rng *rand.Rand, ops int, step func()) []traceEntry {
	var trace []traceEntry
	const firstLaneKind = 10
	lanes := make([]int, 2+rng.Intn(4))
	lastDelay := make([]float64, len(lanes))
	for i := range lanes {
		lanes[i] = eng.openLane(firstLaneKind + uint8(i))
	}
	nextID := 0
	emitLane := func(li int) {
		d := lastDelay[li]
		switch rng.Intn(8) {
		case 0:
			d = 0
		case 1: // equal: ties on time with the lane's tail when now is unchanged
		case 2:
			d *= rng.Float64() // earlier than the last: the fallback, unless the clock moved enough
		default:
			d += rng.Float64() * math.Pow(10, float64(rng.Intn(4))-3)
		}
		lastDelay[li] = d
		eng.emitLaneAfter(lanes[li], d, int32(nextID))
		nextID++
	}
	eng.SetSink(sinkFunc(func(kind uint8, subject int32) {
		trace = append(trace, traceEntry{id: int(subject), now: eng.Now(), pending: eng.Pending(), typed: true})
		if kind >= firstLaneKind && rng.Intn(3) == 0 && nextID < 4*ops {
			emitLane((int(kind-firstLaneKind) + rng.Intn(2)) % len(lanes))
		}
	}))
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0:
			id := nextID
			nextID++
			eng.After(rng.Float64()*math.Pow(10, float64(rng.Intn(5))-3), func() {
				trace = append(trace, traceEntry{id: id, now: eng.Now(), pending: eng.Pending()})
			})
		case 1:
			eng.EmitAfter(rng.Float64()*math.Pow(10, float64(rng.Intn(5))-3), progKindPlain, int32(nextID))
			nextID++
		default:
			emitLane(rng.Intn(len(lanes)))
		}
		if step != nil && rng.Intn(6) == 0 {
			step()
		}
	}
	eng.Run()
	return trace
}

// sinkFunc adapts a function to EventSink.
type sinkFunc func(kind uint8, subject int32)

func (f sinkFunc) Dispatch(kind uint8, subject int32) { f(kind, subject) }

// TestLaneDifferentialSchedules holds wheel + lanes to the lane-free heap
// over randomized multi-lane schedules: identical traces — ids, clocks and
// Pending() at every dispatch — and identical final state. It also checks
// the schedules exercise what they claim to: on the wheel events ride the
// lanes, on the heap none do.
func TestLaneDifferentialSchedules(t *testing.T) {
	var rode, queued uint64
	for seed := int64(1); seed <= 60; seed++ {
		wheel, ref := NewEngine(), NewReferenceEngine()
		drain := func(eng *Engine, rng *rand.Rand) func() {
			return func() { eng.RunUntil(eng.Now() + rng.Float64()*0.5) }
		}
		rw, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		want := laneProgram(ref, rr, 300, drain(ref, rr))
		got := laneProgram(wheel, rw, 300, drain(wheel, rw))
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel dispatched %d events, heap %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d differs: wheel %+v, heap %+v", seed, i, got[i], want[i])
			}
		}
		if wheel.Now() != ref.Now() || wheel.Pending() != 0 || ref.Pending() != 0 || wheel.Scheduled() != ref.Scheduled() {
			t.Fatalf("seed %d: final state differs: wheel (now=%g pending=%d scheduled=%d), heap (now=%g pending=%d scheduled=%d)",
				seed, wheel.Now(), wheel.Pending(), wheel.Scheduled(), ref.Now(), ref.Pending(), ref.Scheduled())
		}
		if ref.LaneScheduled() != 0 {
			t.Fatalf("seed %d: the reference engine put %d events on lanes", seed, ref.LaneScheduled())
		}
		rode += wheel.LaneScheduled()
		queued += wheel.Scheduled() - wheel.LaneScheduled()
	}
	t.Logf("%d events rode lanes, %d went to the general queue", rode, queued)
	if rode == 0 {
		t.Fatal("no event ever rode a lane: the suite compares the wheel with itself")
	}
}

// TestLaneDifferentialLockstep drains the same multi-lane schedule on both
// engines in RunUntil steps that land between events — between two lane
// heads as often as not — comparing clock, pending count and trace after
// every step.
func TestLaneDifferentialLockstep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		wheel, ref := NewEngine(), NewReferenceEngine()
		rw, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		// Load without draining: Run is replaced by the stepping below.
		load := func(eng *Engine, rng *rand.Rand, trace *[]traceEntry) {
			eng.SetSink(sinkFunc(func(_ uint8, subject int32) {
				*trace = append(*trace, traceEntry{id: int(subject), now: eng.Now(), pending: eng.Pending(), typed: true})
			}))
			lanes := []int{eng.openLane(1), eng.openLane(2), eng.openLane(3)}
			for i := 0; i < 240; i++ {
				d := rng.Float64() * math.Pow(10, float64(rng.Intn(4))-2)
				if rng.Intn(6) == 0 {
					d = 0
				}
				if i%4 == 3 {
					id := i
					eng.After(d, func() {
						*trace = append(*trace, traceEntry{id: id, now: eng.Now(), pending: eng.Pending()})
					})
					continue
				}
				// Lane i%3 sees delays in draw order, not sorted: roughly
				// half its emits fall back.
				eng.emitLaneAfter(lanes[i%3], d, int32(i))
			}
		}
		var wTrace, rTrace []traceEntry
		load(wheel, rw, &wTrace)
		load(ref, rr, &rTrace)
		if wheel.LaneScheduled() == 0 || wheel.LaneScheduled() == wheel.Scheduled() {
			t.Fatalf("seed %d: %d of %d events on lanes: want both lane residents and fallbacks",
				seed, wheel.LaneScheduled(), wheel.Scheduled())
		}
		for step := 0; ref.Pending() > 0; step++ {
			deadline := ref.Now() + rr.Float64()*0.02
			wheel.RunUntil(deadline)
			ref.RunUntil(deadline)
			if wheel.Now() != ref.Now() || wheel.Pending() != ref.Pending() || len(wTrace) != len(rTrace) {
				t.Fatalf("seed %d step %d: wheel (now=%g pending=%d dispatched=%d), heap (now=%g pending=%d dispatched=%d)",
					seed, step, wheel.Now(), wheel.Pending(), len(wTrace), ref.Now(), ref.Pending(), len(rTrace))
			}
		}
		for i := range rTrace {
			if wTrace[i] != rTrace[i] {
				t.Fatalf("seed %d: dispatch %d differs: wheel %+v, heap %+v", seed, i, wTrace[i], rTrace[i])
			}
		}
	}
}

// TestLaneDifferentialDecreasingService runs a TypedStation whose service
// time shrinks as it serves — the opposite of the contention growth the
// lanes are built for — on several servers. Completions are emitted out of
// time order, so a good share must fall back to the general queue, and the
// dispatch order must still be the heap's.
func TestLaneDifferentialDecreasingService(t *testing.T) {
	const jobs = 2000
	run := func(eng *Engine) ([]traceEntry, float64) {
		var trace []traceEntry
		var st TypedStation
		rng := NewRNG(5)
		st.Init(eng, 7, 1, jobs, func(int32) float64 {
			return 3/(1+0.01*float64(st.Served)) + 0.2*rng.Float64()
		})
		eng.SetSink(sinkFunc(func(_ uint8, subject int32) {
			st.Complete(subject)
			trace = append(trace, traceEntry{id: int(subject), now: eng.Now(), pending: eng.Pending(), typed: true})
			st.Next()
		}))
		for i := 0; i < jobs; i++ {
			st.Submit(int32(i))
		}
		eng.Run()
		if st.Served != jobs {
			t.Fatalf("station served %d of %d jobs", st.Served, jobs)
		}
		return trace, st.BusySeconds
	}
	wheel, ref := NewEngine(), NewReferenceEngine()
	want, wantBusy := run(ref)
	got, gotBusy := run(wheel)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d differs: wheel %+v, heap %+v", i, got[i], want[i])
		}
	}
	if gotBusy != wantBusy {
		t.Fatalf("busy seconds differ: wheel %g, heap %g", gotBusy, wantBusy)
	}
	fellBack := wheel.Scheduled() - wheel.LaneScheduled()
	t.Logf("%d of %d completions fell back to the general queue", fellBack, wheel.Scheduled())
	if fellBack == 0 || wheel.LaneScheduled() == 0 {
		t.Fatalf("%d completions on the lane, %d on the queue: want both", wheel.LaneScheduled(), fellBack)
	}
}
