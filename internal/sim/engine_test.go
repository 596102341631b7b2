package sim

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	clo := newClosures(eng)
	var order []int
	clo.At(3, func() { order = append(order, 3) })
	clo.At(1, func() { order = append(order, 1) })
	clo.At(2, func() { order = append(order, 2) })
	end := eng.Run()
	if end != 3 {
		t.Fatalf("final time %g, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order %v", order)
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	eng := NewEngine()
	clo := newClosures(eng)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		clo.At(5, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	clo := newClosures(eng)
	var times []float64
	clo.At(1, func() {
		times = append(times, eng.Now())
		clo.After(2, func() { times = append(times, eng.Now()) })
	})
	eng.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("nested times %v", times)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	eng := NewEngine()
	clo := newClosures(eng)
	clo.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		clo.At(1, func() {})
	})
	eng.Run()

	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	clo.After(-1, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	clo := newClosures(eng)
	fired := 0
	clo.At(1, func() { fired++ })
	clo.At(2, func() { fired++ })
	clo.At(10, func() { fired++ })
	eng.RunUntil(5)
	if fired != 2 {
		t.Fatalf("fired %d events before deadline, want 2", fired)
	}
	if eng.Now() != 5 {
		t.Fatalf("clock %g, want 5", eng.Now())
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending %d, want 1", eng.Pending())
	}
	eng.Run()
	if fired != 3 || eng.Now() != 10 {
		t.Fatalf("after Run: fired=%d now=%g", fired, eng.Now())
	}
}

// TestEventWordIs24Bytes pins the heap element: time, sequence, subject and
// kind, and no pointer for the collector to trace.
func TestEventWordIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Fatalf("event is %d bytes, want 24", n)
	}
}

// runStation runs jobs through a fresh TypedStation of servers servers and
// returns it, its completion times in order and the final virtual time.
func runStation(servers, jobs int, service func(st *TypedStation) float64) (*TypedStation, []float64, float64) {
	eng := NewEngine()
	st := new(TypedStation)
	var ends []float64
	eng.SetSink(sinkFunc(func(_ uint8, subject int32) {
		st.Complete(subject)
		ends = append(ends, eng.Now())
		st.Next()
	}))
	st.Init(eng, servers, 1, jobs, func(int32) float64 { return service(st) })
	for i := 0; i < jobs; i++ {
		st.Submit(int32(i))
	}
	return st, ends, eng.Run()
}

func TestStationSingleServerSerializes(t *testing.T) {
	st, ends, _ := runStation(1, 4, func(*TypedStation) float64 { return 2 })
	want := []float64{2, 4, 6, 8}
	for i, e := range ends {
		if e != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
	if st.Served != 4 || st.Busy() != 0 || st.QueueLen() != 0 {
		t.Fatalf("station state: served=%d busy=%d queue=%d", st.Served, st.Busy(), st.QueueLen())
	}
}

func TestStationMultiServerParallelism(t *testing.T) {
	_, ends, _ := runStation(3, 6, func(*TypedStation) float64 { return 5 })
	// Two waves of 3: ends at 5,5,5,10,10,10.
	for i, e := range ends {
		want := 5.0
		if i >= 3 {
			want = 10
		}
		if e != want {
			t.Fatalf("ends %v", ends)
		}
	}
}

func TestStationStateDependentService(t *testing.T) {
	// Service time grows with number already served — the scheduler-search
	// pattern. Completion of job k is sum_{i<=k} (base + i*step).
	const base, step = 1.0, 0.5
	_, ends, _ := runStation(1, 10, func(st *TypedStation) float64 { return base + float64(st.Served)*step })
	want := 0.0
	for i := 0; i < 10; i++ {
		want += base + float64(i)*step
	}
	if last := ends[len(ends)-1]; math.Abs(last-want) > 1e-9 {
		t.Fatalf("last completion %g, want %g", last, want)
	}
}

func TestStationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0-server station should panic")
		}
	}()
	var st TypedStation
	st.Init(NewEngine(), 0, 1, 1, func(int32) float64 { return 1 })
}

func TestRNGDeterminismAndStreams(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	s1, s2 := Stream(42, 1), Stream(42, 2)
	same := true
	for i := 0; i < 10; i++ {
		if s1.Float64() != s2.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("distinct streams produced identical output")
	}
}

func TestJitterBounded(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10000; i++ {
		j := g.Jitter(0.02)
		if j < 1-0.061 || j > 1+0.061 {
			t.Fatalf("jitter %g outside ±3σ clamp", j)
		}
	}
	if g.Jitter(0) != 1 || g.Jitter(-1) != 1 {
		t.Fatal("non-positive stddev should yield exactly 1")
	}
}

// Property: for any workload of n 1-second jobs on k servers, a station
// finishes at ceil(n/k) seconds.
func TestStationMakespanProperty(t *testing.T) {
	f := func(n, k uint8) bool {
		jobs := int(n)%64 + 1
		servers := int(k)%8 + 1
		_, _, end := runStation(servers, jobs, func(*TypedStation) float64 { return 1 })
		want := math.Ceil(float64(jobs) / float64(servers))
		return math.Abs(end-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
