package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The engine held to its contract, not to a second engine. Every test
// program schedules through a spec, which records each event's key when it
// is scheduled — its time, and its seq read from Scheduled() — and checks at
// every dispatch that
//
//   - (at, seq) strictly increases from one dispatch to the next,
//   - the clock reads the event's own time, and the event arrives by the
//     path it was scheduled on (the program's sink or a closure),
//   - Pending() equals the events scheduled minus the events dispatched;
//
// and, when the program drains, that RunUntil(d) leaves no pending event at
// ≤ d and that the final Run dispatched every scheduled event exactly once.
// That is a complete oracle for the order: an engine that picks the wrong
// event leaves a smaller one pending, which must dispatch later and break
// the increasing order. It shares no code with the engine it judges.

// traceEntry is one dispatched event as the spec saw it. typed distinguishes
// the program's own events from closures (closure_test.go).
type traceEntry struct {
	id      int
	now     float64
	pending int
	typed   bool
}

// key is an event's place in the total order, and the path it rides.
type key struct {
	at    float64
	seq   uint64
	typed bool
}

type spec struct {
	t     testing.TB
	eng   *Engine
	clo   *closures   // the engine's sink: programs register theirs on it
	due   map[int]key // scheduled and not yet dispatched, by event id
	last  key         // the latest dispatch's key
	done  uint64      // events dispatched
	trace []traceEntry
}

func newSpec(t testing.TB, eng *Engine) *spec {
	return &spec{t: t, eng: eng, clo: newClosures(eng), due: make(map[int]key)}
}

// expect records that event id will dispatch at time at with sequence seq.
func (s *spec) expect(id int, at float64, seq uint64, typed bool) {
	s.t.Helper()
	if _, dup := s.due[id]; dup {
		s.t.Fatalf("event id %d scheduled twice: the test program reuses ids", id)
	}
	s.due[id] = key{at: at, seq: seq, typed: typed}
}

// expectAfter records the event a station is about to schedule d seconds
// from now: the next seq the engine issues.
func (s *spec) expectAfter(d float64, id int, typed bool) {
	s.expect(id, s.eng.Now()+d, s.eng.Scheduled()+1, typed)
}

func (s *spec) after(d float64, id int, fn func()) {
	at := s.eng.Now() + d
	s.clo.After(d, func() {
		s.dispatched(id, false)
		if fn != nil {
			fn()
		}
	})
	s.expect(id, at, s.eng.Scheduled(), false)
}

func (s *spec) emitAfter(d float64, kind uint8, id int) {
	at := s.eng.Now() + d
	s.eng.EmitAfter(d, kind, int32(id))
	s.expect(id, at, s.eng.Scheduled(), true)
}

func (s *spec) emitLaneAfter(lane int, d float64, id int) {
	at := s.eng.Now() + d
	s.eng.emitLaneAfter(lane, d, int32(id))
	s.expect(id, at, s.eng.Scheduled(), true)
}

// dispatched checks the contract at event id's dispatch and traces it.
func (s *spec) dispatched(id int, typed bool) {
	s.t.Helper()
	k, ok := s.due[id]
	if !ok {
		s.t.Fatalf("event %d dispatched while not pending: never scheduled, or dispatched twice", id)
	}
	delete(s.due, id)
	s.done++
	now, pending := s.eng.Now(), s.eng.Pending()
	switch {
	case k.typed != typed:
		s.t.Fatalf("event %d scheduled typed=%v dispatched typed=%v", id, k.typed, typed)
	case now != k.at:
		s.t.Fatalf("event %d due at %g dispatched with the clock at %g", id, k.at, now)
	case !(k.at > s.last.at || k.at == s.last.at && k.seq > s.last.seq):
		s.t.Fatalf("dispatch %d: event %d at (%g, seq %d) after (%g, seq %d): (at, seq) must strictly increase",
			s.done, id, k.at, k.seq, s.last.at, s.last.seq)
	case pending != int(s.eng.Scheduled()-s.done):
		s.t.Fatalf("dispatch %d: Pending() = %d, want scheduled %d − dispatched %d",
			s.done, pending, s.eng.Scheduled(), s.done)
	}
	s.last = k
	s.trace = append(s.trace, traceEntry{id: id, now: now, pending: pending, typed: typed})
}

func (s *spec) runUntil(deadline float64) {
	s.t.Helper()
	s.eng.RunUntil(deadline)
	for id, k := range s.due {
		if k.at <= deadline {
			s.t.Fatalf("RunUntil(%g) left event %d at %g pending", deadline, id, k.at)
		}
	}
}

// run drains the engine and returns the trace.
func (s *spec) run() []traceEntry {
	s.t.Helper()
	s.eng.Run()
	if len(s.due) != 0 || s.done != s.eng.Scheduled() || s.eng.Pending() != 0 {
		s.t.Fatalf("after Run: %d events never dispatched, %d of %d dispatched, Pending() = %d",
			len(s.due), s.done, s.eng.Scheduled(), s.eng.Pending())
	}
	return s.trace
}

// nextDue is the earliest time any pending event is due (+Inf when none is).
func (s *spec) nextDue() float64 {
	next := math.Inf(1)
	for _, k := range s.due {
		next = math.Min(next, k.at)
	}
	return next
}

// Typed-event kinds of the schedule programs. Kind 1 is a plain traced
// event; kinds 2+depth respawn a nested sub-schedule from inside the sink,
// mirroring the closure path's respawn-from-callback pattern.
const (
	progKindPlain uint8 = iota + 1
	progKindRespawn0
)

// sinkFunc adapts a function to EventSink.
type sinkFunc func(kind uint8, subject int32)

func (f sinkFunc) Dispatch(kind uint8, subject int32) { f(kind, subject) }

// scheduleProgram runs a randomized schedule through s. Events are a seeded
// mix of closure callbacks (After) and typed value events (EmitAfter through
// a registered sink), some of which schedule more from inside their
// dispatch, so the contract also covers the closure adapter and the typed
// path sharing one (at, seq) order.
func scheduleProgram(s *spec, rng *rand.Rand, ops int) {
	eng := s.eng
	nextID := 0
	var schedule func(depth int)
	s.clo.SetSink(sinkFunc(func(kind uint8, subject int32) {
		s.dispatched(int(subject), true)
		if kind >= progKindRespawn0 {
			schedule(int(kind-progKindRespawn0) + 1)
		}
	}))
	schedule = func(depth int) {
		id := nextID
		nextID++
		// Delays span eleven orders of magnitude, zero included.
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
			d = rng.Float64() * 1e7
		}
		respawn := depth < 3 && rng.Intn(3) == 0
		if rng.Intn(3) == 0 {
			kind := progKindPlain
			if respawn {
				kind = progKindRespawn0 + uint8(depth)
			}
			s.emitAfter(d, kind, id)
			return
		}
		s.after(d, id, func() {
			if respawn {
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < ops; i++ {
		schedule(0)
		// Occasionally drain partway, interleaving RunUntil with fresh
		// scheduling.
		if rng.Intn(8) == 0 {
			s.runUntil(eng.Now() + rng.Float64()*10)
		}
	}
	s.run()
}

// TestEngineDifferentialSchedules holds the engine to its contract over many
// randomized schedules.
func TestEngineDifferentialSchedules(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		scheduleProgram(newSpec(t, NewEngine()), rand.New(rand.NewSource(seed)), 120)
	}
}

// TestEngineDifferentialLockstep loads a schedule up front and drains it one
// instant at a time — RunUntil the earliest pending time — so the contract
// is checked at every boundary where one dispatch run ends and the next
// begins.
func TestEngineDifferentialLockstep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := newSpec(t, NewEngine())
		rng := rand.New(rand.NewSource(seed))
		s.clo.SetSink(sinkFunc(func(_ uint8, subject int32) { s.dispatched(int(subject), true) }))
		for i := 0; i < 200; i++ {
			d := rng.Float64() * math.Pow(10, float64(rng.Intn(7))-3)
			if rng.Intn(5) == 0 {
				d = 0
			}
			// Every third event goes through the typed path.
			if i%3 == 0 {
				s.emitAfter(d, progKindPlain, i)
				continue
			}
			s.after(d, i, nil)
		}
		for len(s.due) > 0 {
			s.runUntil(s.nextDue())
		}
		s.run()
	}
}

// stationJobs is the size of the two-station workloads below.
const stationJobs = 300

// closureStations runs a contended two-station workload — the platform
// simulator's usage pattern — on closure stations (closure_test.go) under the
// contract, and returns each job's "id:schedEnd:buildEnd" in completion order
// and the two stations' busy seconds. Each completion is expected when its
// service time is drawn, the instant the station schedules it.
func closureStations(t *testing.T) ([]string, float64, float64) {
	const jobs = stationJobs
	s := newSpec(t, NewEngine())
	var out []string
	sched := newStation(s.clo, 2)
	build := newStation(s.clo, 3)
	rng := NewRNG(99)
	for i := 0; i < jobs; i++ {
		i := i
		sched.Submit(
			func() float64 {
				d := 0.1 + 1e-4*float64(sched.Served)
				s.expectAfter(d, i, false)
				return d
			},
			func(_, end float64) {
				s.dispatched(i, false)
				build.Submit(
					func() float64 {
						d := 2 + rng.Float64()
						s.expectAfter(d, jobs+i, false)
						return d
					},
					func(_, be float64) {
						s.dispatched(jobs+i, false)
						out = append(out, fmt.Sprintf("%d:%.9f:%.9f", i, end, be))
					})
			})
	}
	s.run()
	return out, sched.BusySeconds, build.BusySeconds
}

// TestEngineDifferentialStations holds closure stations to the contract.
func TestEngineDifferentialStations(t *testing.T) {
	if out, _, _ := closureStations(t); len(out) != stationJobs {
		t.Fatalf("%d jobs completed, want %d", len(out), stationJobs)
	}
}

// stationSink drives the typed half of the station test: two chained
// TypedStations whose completions follow the Complete → logic → Next
// protocol.
type stationSink struct {
	s            *spec
	sched, build TypedStation
	schedEnd     []float64
	out          []string
}

const (
	stKindSched uint8 = iota + 1
	stKindBuild
)

func (st *stationSink) Dispatch(kind uint8, sub int32) {
	now := st.s.eng.Now()
	switch kind {
	case stKindSched:
		st.s.dispatched(int(sub), true)
		st.sched.Complete(sub)
		st.schedEnd[sub] = now
		st.build.Submit(sub)
		st.sched.Next()
	case stKindBuild:
		st.s.dispatched(len(st.schedEnd)+int(sub), true)
		st.build.Complete(sub)
		st.out = append(st.out, fmt.Sprintf("%d:%.9f:%.9f", sub, st.schedEnd[sub], now))
		st.build.Next()
	}
}

// TestEngineDifferentialTypedStations holds TypedStation to the closure
// station's behaviour: the same contended two-stage workload, run through
// subjects-and-kinds instead of closures, must complete in the identical
// order at bit-identical times and account the same Served / BusySeconds
// totals — with the engine's contract checked on both runs. The typed
// stations' completions ride lanes; the closure ones go through the heap.
func TestEngineDifferentialTypedStations(t *testing.T) {
	const jobs = stationJobs
	typedRun := func() ([]string, float64, float64, *Engine) {
		st := &stationSink{s: newSpec(t, NewEngine()), schedEnd: make([]float64, jobs)}
		eng := st.s.eng
		rng := NewRNG(99)
		st.sched.Init(eng, 2, stKindSched, jobs, func(sub int32) float64 {
			d := 0.1 + 1e-4*float64(st.sched.Served)
			st.s.expectAfter(d, int(sub), true)
			return d
		})
		st.build.Init(eng, 3, stKindBuild, jobs, func(sub int32) float64 {
			d := 2 + rng.Float64()
			st.s.expectAfter(d, jobs+int(sub), true)
			return d
		})
		st.s.clo.SetSink(st)
		for i := 0; i < jobs; i++ {
			st.sched.Submit(int32(i))
		}
		st.s.run()
		return st.out, st.sched.BusySeconds, st.build.BusySeconds, eng
	}
	want, wantSchedBusy, wantBuildBusy := closureStations(t)
	got, schedBusy, buildBusy, eng := typedRun()
	if len(got) != len(want) {
		t.Fatalf("typed completed %d jobs, closure %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("completion %d differs:\ntyped:   %s\nclosure: %s", i, got[i], want[i])
		}
	}
	if schedBusy != wantSchedBusy || buildBusy != wantBuildBusy {
		t.Fatalf("busy-seconds differ: sched %g vs %g, build %g vs %g",
			schedBusy, wantSchedBusy, buildBusy, wantBuildBusy)
	}
	if eng.LaneScheduled() == 0 {
		t.Fatal("no typed completion rode a lane: the comparison holds the heap to itself")
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
// has done. Even timers are typed events, odd ones closures.
func growingScaleProgram(s *spec, rng *rand.Rand, events int) []traceEntry {
	left := events
	var timerOf []int // event id → the timer it re-arms
	delay := func(timer int) float64 {
		base := 0.25 // slow
		if timer < 2 {
			base = 0.01 // fast
		}
		progress := float64(events-left) / float64(events)
		return base * math.Pow(growFactor, progress) * (0.5 + rng.Float64())
	}
	var rearm func(timer int)
	rearm = func(timer int) {
		if left == 0 {
			return
		}
		left--
		id := len(timerOf)
		timerOf = append(timerOf, timer)
		if timer%2 == 0 {
			s.emitAfter(delay(timer), progKindPlain, id)
			return
		}
		s.after(delay(timer), id, func() { rearm(timer) })
	}
	s.clo.SetSink(sinkFunc(func(_ uint8, subject int32) {
		s.dispatched(int(subject), true)
		rearm(timerOf[subject])
	}))
	for timer := 0; timer < growSlowTimers+2; timer++ {
		rearm(timer)
	}
	return s.run()
}

// TestEngineDifferentialGrowingTimeScale holds the engine to its contract on
// schedules whose time scale drifts by five orders of magnitude under a
// small population.
func TestEngineDifferentialGrowingTimeScale(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		trace := growingScaleProgram(newSpec(t, NewEngine()), rand.New(rand.NewSource(seed)), 20_000)
		if len(trace) != 20_000 {
			t.Fatalf("seed %d: dispatched %d events, want 20000", seed, len(trace))
		}
	}
}

// laneProgram is the randomized schedule of the lane tests: a few lanes fed
// from outside and from inside dispatch, beside closure and typed events on
// the heap. Each lane emit picks its delay relative to the lane's last one —
// later, equal, or earlier, the last of which must take the fallback — or
// zero, so lanes tie with each other and with the heap. Lane events re-emit
// onto their own or a neighbouring lane from inside the sink. step, when
// set, is called between top-level operations to drain partway.
func laneProgram(s *spec, rng *rand.Rand, ops int, step func()) {
	eng := s.eng
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
		s.emitLaneAfter(lanes[li], d, nextID)
		nextID++
	}
	s.clo.SetSink(sinkFunc(func(kind uint8, subject int32) {
		s.dispatched(int(subject), true)
		if kind >= firstLaneKind && rng.Intn(3) == 0 && nextID < 4*ops {
			emitLane((int(kind-firstLaneKind) + rng.Intn(2)) % len(lanes))
		}
	}))
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0:
			s.after(rng.Float64()*math.Pow(10, float64(rng.Intn(5))-3), nextID, nil)
			nextID++
		case 1:
			s.emitAfter(rng.Float64()*math.Pow(10, float64(rng.Intn(5))-3), progKindPlain, nextID)
			nextID++
		default:
			emitLane(rng.Intn(len(lanes)))
		}
		if step != nil && rng.Intn(6) == 0 {
			step()
		}
	}
	s.run()
}

// TestLaneDifferentialSchedules holds lanes merged with the heap to the
// contract over randomized multi-lane schedules, and checks the schedules
// exercise what they claim to: events both ride the lanes and fall back to
// the heap.
func TestLaneDifferentialSchedules(t *testing.T) {
	var rode, queued uint64
	for seed := int64(1); seed <= 60; seed++ {
		s := newSpec(t, NewEngine())
		rng := rand.New(rand.NewSource(seed))
		laneProgram(s, rng, 300, func() { s.runUntil(s.eng.Now() + rng.Float64()*0.5) })
		rode += s.eng.LaneScheduled()
		queued += s.eng.Scheduled() - s.eng.LaneScheduled()
	}
	t.Logf("%d events rode lanes, %d went to the heap", rode, queued)
	if rode == 0 || queued == 0 {
		t.Fatalf("%d events on lanes, %d on the heap: want both", rode, queued)
	}
}

// TestLaneDifferentialLockstep drains a multi-lane schedule in RunUntil
// steps that land between events — between two lane heads as often as not —
// with the contract checked at every step.
func TestLaneDifferentialLockstep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := newSpec(t, NewEngine())
		rng := rand.New(rand.NewSource(seed))
		s.clo.SetSink(sinkFunc(func(_ uint8, subject int32) { s.dispatched(int(subject), true) }))
		lanes := []int{s.eng.openLane(1), s.eng.openLane(2), s.eng.openLane(3)}
		for i := 0; i < 240; i++ {
			d := rng.Float64() * math.Pow(10, float64(rng.Intn(4))-2)
			if rng.Intn(6) == 0 {
				d = 0
			}
			if i%4 == 3 {
				s.after(d, i, nil)
				continue
			}
			// Lane i%3 sees delays in draw order, not sorted: roughly half
			// its emits fall back.
			s.emitLaneAfter(lanes[i%3], d, i)
		}
		if n := s.eng.LaneScheduled(); n == 0 || n == s.eng.Scheduled() {
			t.Fatalf("seed %d: %d of %d events on lanes: want both lane residents and fallbacks",
				seed, n, s.eng.Scheduled())
		}
		for len(s.due) > 0 {
			s.runUntil(s.eng.Now() + rng.Float64()*0.02)
		}
		s.run()
	}
}

// TestLaneDifferentialDecreasingService runs a TypedStation whose service
// time shrinks as it serves — the opposite of the contention growth the
// lanes are built for — on several servers. Completions are emitted out of
// time order, so a good share must fall back to the heap, and the contract
// must still hold.
func TestLaneDifferentialDecreasingService(t *testing.T) {
	const jobs = 2000
	s := newSpec(t, NewEngine())
	var st TypedStation
	rng := NewRNG(5)
	st.Init(s.eng, 7, 1, jobs, func(sub int32) float64 {
		d := 3/(1+0.01*float64(st.Served)) + 0.2*rng.Float64()
		s.expectAfter(d, int(sub), true)
		return d
	})
	s.clo.SetSink(sinkFunc(func(_ uint8, subject int32) {
		s.dispatched(int(subject), true)
		st.Complete(subject)
		st.Next()
	}))
	for i := 0; i < jobs; i++ {
		st.Submit(int32(i))
	}
	s.run()
	if st.Served != jobs {
		t.Fatalf("station served %d of %d jobs", st.Served, jobs)
	}
	fellBack := s.eng.Scheduled() - s.eng.LaneScheduled()
	t.Logf("%d of %d completions fell back to the heap", fellBack, s.eng.Scheduled())
	if fellBack == 0 || s.eng.LaneScheduled() == 0 {
		t.Fatalf("%d completions on the lane, %d on the heap: want both", s.eng.LaneScheduled(), fellBack)
	}
}
