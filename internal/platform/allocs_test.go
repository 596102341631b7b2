package platform

import (
	"runtime"
	"sort"
	"testing"

	"repro/internal/interfere"
	"repro/internal/resilience"
	"repro/internal/stats"
)

// The burst hot path is allocation-lean: no per-instance degree slice, a
// single reused billing group descriptor, one selection for multi-quantile
// metrics in pooled scratch, and — since the typed-dispatch rewrite — no event
// or control-plane closures at all. Steady state, the only O(n) allocations
// left in Run are the column slabs the Result owns (45 B/instance, 77 when
// the Config can inject faults, 21 inside the schedule store's gate, where
// the store keeps start alone, and 13 when it serves that column); the row
// view is built only when a caller asks for Timelines(). The regression
// bounds below hold that line.

func TestRunAllocationLean(t *testing.T) {
	cfg := AWSLambda()
	d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000}
	b := Burst{Demand: d, Functions: 2000, Degree: 8, Seed: 1}
	if _, err := Run(cfg, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg, b); err != nil {
			t.Error(err)
		}
	})
	// The closure control plane sat at ≈19 objects per instance when this
	// bound was first set; the typed dispatcher's steady state is ≈0.01
	// (the column slabs amortized). The bound keeps headroom for pool
	// evictions under GC pressure while still catching any per-instance
	// closure sneaking back in.
	per := allocs / float64(b.Instances())
	if per > 2 {
		t.Errorf("Run allocates %.1f objects per instance (%.0f total), want ≤ 2", per, allocs)
	}
}

// TestAllocsPerRunTypedVsClosure pins the steady-state allocation story the
// typed dispatcher exists for, at C=10⁴: the typed path's per-instance
// allocations must stay near zero (the Result's column slabs amortized),
// and the retained closure control plane must still exhibit the
// per-instance closure costs it was rewritten to shed — if the oracle ever
// measures lean too, the comparison has stopped guarding anything.
func TestAllocsPerRunTypedVsClosure(t *testing.T) {
	cfg := AWSLambda()
	d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000}
	b := Burst{Demand: d, Functions: 10_000, Degree: 1, Seed: 7}
	n := float64(b.Instances())

	measure := func() float64 {
		if _, err := Run(cfg, b); err != nil { // warm the scratch/engine pool
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg, b); err != nil {
				t.Error(err)
			}
		}) / n
	}

	typed := measure()
	var closure float64
	withClosureControlPlane(func() { closure = measure() })

	// Steady state the typed path performs ~1 allocation per 100 instances;
	// ≤2 leaves room for a GC-evicted pool entry being rebuilt mid-measure.
	if typed > 2 {
		t.Errorf("typed dispatch: %.2f allocs/instance at C=10⁴, want ≤ 2", typed)
	}
	if closure < 5 {
		t.Errorf("closure oracle: %.2f allocs/instance — suspiciously lean; the typed-vs-closure alloc comparison no longer measures anything", closure)
	}
	t.Logf("allocs/instance at C=10⁴: typed=%.3f closure=%.1f", typed, closure)
}

// allocsOf reports the objects and bytes one call of fn allocates, as the
// minimum over twenty runs: the steady state is the floor, and two
// things inflate a run above it. A GC-evicted pool entry is rebuilt. And a
// run that starts a goroutine (the follower) allocates the goroutine's g
// afresh whenever the spawning P's free list is empty — the previous
// follower's g died on the other P — which some processes meet on several
// runs in a row, so five samples did not always reach the floor.
func allocsOf(fn func()) (objects, bytes uint64) {
	objects, bytes = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for k := 0; k < 20; k++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if o := after.Mallocs - before.Mallocs; o < objects {
			objects = o
		}
		if b := after.TotalAlloc - before.TotalAlloc; b < bytes {
			bytes = b
		}
	}
	return objects, bytes
}

// TestAllocsPerRunColumnarResult pins the columnar Result's footprint at
// C=10⁴: a steady-state Run allocates the three column slabs — at most 45
// B/instance when the Config rolls no dice (13 once the schedule store holds
// the burst), 77 with the fault and hedge columns — plus a fixed handful of
// small objects and nothing else
// proportional to n, and asking the Result for its scaling time allocates
// nothing at all, i.e. never materializes the row view. (trace.FromResult's share of the same gate is
// TestAllocsPerRunFromResult in internal/trace.)
func TestAllocsPerRunColumnarResult(t *testing.T) {
	d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000}
	b := Burst{Demand: d, Functions: 10_000, Degree: 1, Seed: 7}
	n := float64(b.Instances())
	faulty := AWSLambda()
	faulty.ExecTimeoutSec = 800 // never fires: the columns' cost, not the retries'
	var res *Result
	for _, tc := range []struct {
		name     string
		cfg      Config
		maxBytes float64
	}{{"faulty", faulty, 80}, {"dice-free", AWSLambda(), 48}} {
		run := func() {
			var err error
			if res, err = Run(tc.cfg, b); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch/engine pool
		objects, bytes := allocsOf(run)
		if per := float64(bytes) / n; per > tc.maxBytes {
			t.Errorf("%s Run allocates %.1f B/instance (%d B total), want ≤ %.0f", tc.name, per, bytes, tc.maxBytes)
		}
		// Under the race detector the pool drops scratches at random, and an
		// evented run then regrows its heap: the bytes still hold, the count not.
		if objects > 5 && !(raceEnabled && tc.cfg.faulty()) {
			t.Errorf("%s Run allocates %d objects, want ≤ 5", tc.name, objects)
		}
		t.Logf("steady-state %s Run at C=10⁴: %d objects, %.2f B/instance", tc.name, objects, float64(bytes)/n)
	}

	var sink float64
	if a := testing.AllocsPerRun(20, func() { sink += res.ScalingTime() }); a != 0 {
		t.Errorf("ScalingTime allocates %.0f objects per call, want 0", a)
	}
	_ = sink

	// The headline burst, drawn, ended and folded by a follower behind the
	// solver when a second core is there (DESIGN §12): the count is reported,
	// not gated.
	if testing.Short() {
		return
	}
	big := b
	big.Functions = 1_000_000
	run := func() {
		if _, err := Run(AWSLambda(), big); err != nil {
			t.Fatal(err)
		}
	}
	run()
	objects, bytes := allocsOf(run)
	t.Logf("steady-state dice-free Run at C=10⁶ (follower: %v): %d objects, %.2f B/instance",
		overlapsDraw(AWSLambda(), big.Instances()), objects, float64(bytes)/float64(big.Functions))
}

// TestAllocsPerRunStoredSchedule pins what the schedule and bill stores save
// (store.go, DESIGN §12). A dice-free Run of 10³ instances whose schedule is
// stored reads its start column there and allocates only end, degree and
// flags — 13 B/instance — and the Result. A one-instance probe, below
// storeMin, never looks up: it allocates the four objects it always has, its
// three column slabs and the Result. A followed burst whose schedule and bill
// are stored adds the follower's feed and goroutine to those four: 6 objects
// and 13 B/instance. A burst whose schedule is solved and stored allocates
// the start column the store keeps besides those — 21 B/instance, where the
// four milestone columns took 45 — and the stored entry.
func TestAllocsPerRunStoredSchedule(t *testing.T) {
	defer resetStores()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000}
	followed := Burst{Demand: d, Functions: overlapDrawMin + 1, Degree: 1, Seed: 7}
	if !overlapsDraw(AWSLambda(), followed.Instances()) {
		t.Fatal("the followed burst runs inline: its pin proves nothing")
	}
	for _, tc := range []struct {
		name     string
		b        Burst
		solved   bool // each run meets emptied stores, solves and stores
		maxBytes float64
		objects  uint64
	}{
		{"stored 10³", Burst{Demand: d, Functions: 1000, Degree: 1, Seed: 7}, false, 15, 4},
		{"one instance", Burst{Demand: d, Functions: 4, Degree: 4, Seed: 7}, false, 1200, 4},
		{"followed, stored", followed, false, 14, 6},
		{"solved and stored 10⁴", Burst{Demand: d, Functions: 10_000, Degree: 1, Seed: 7}, true, 22, 9},
	} {
		run := func() {
			if tc.solved {
				resetStores()
			}
			if _, err := Run(AWSLambda(), tc.b); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the stores and the scratch pool
		objects, bytes := allocsOf(run)
		n := float64(tc.b.Instances())
		if per := float64(bytes) / n; per > tc.maxBytes {
			t.Errorf("%s Run allocates %.1f B/instance (%d B total), want ≤ %.0f", tc.name, per, bytes, tc.maxBytes)
		}
		if objects != tc.objects && !raceEnabled {
			t.Errorf("%s Run allocates %d objects, want %d", tc.name, objects, tc.objects)
		}
		t.Logf("%s Run: %d objects, %.2f B/instance", tc.name, objects, float64(bytes)/n)
	}
}

// TestExecTimeAllocatesNothing pins Eq. 1's probe on a dice-free platform:
// where the one-instance Run above allocates its three column slabs and the
// Result, ExecTime builds no Result, keeps its one row of columns on the
// pooled scratch and its fold's meter on the stack, and allocates nothing.
func TestExecTimeAllocatesNothing(t *testing.T) {
	d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000, InputMB: 5, OutputMB: 1}
	for _, cfg := range Providers() {
		probe := func() {
			if _, _, err := ExecTime(cfg, d, 4, 7); err != nil {
				t.Fatal(err)
			}
		}
		probe() // warm the scratch pool
		if objects, bytes := allocsOf(probe); (objects != 0 || bytes != 0) && !raceEnabled {
			t.Errorf("%s: ExecTime allocates %d objects (%d B), want 0", cfg.Name, objects, bytes)
		}
	}
}

func TestServiceTimeQuantilesAllocationLean(t *testing.T) {
	cfg := AWSLambda()
	d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000}
	res, err := Run(cfg, Burst{Demand: d, Functions: 2000, Degree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The ranks and the result slice, regardless of how many quantiles are
	// requested: the copy of the end column it selects in is pooled
	// (stats.Quantiles), which the race detector's pool drops at random.
	allocs := testing.AllocsPerRun(20, func() {
		res.ServiceTimeAtQuantiles(95, 50)
	})
	if want := 2.0; allocs > want && !raceEnabled {
		t.Errorf("ServiceTimeAtQuantiles allocates %.0f objects per call, want ≤ %.0f", allocs, want)
	}
	// And both answers must agree with the single-quantile path.
	sv := res.ServiceTimeAtQuantiles(95, 50)
	if sv[0] != res.ServiceTimeAtQuantile(95) || sv[1] != res.ServiceTimeAtQuantile(50) {
		t.Errorf("multi-quantile answers %v disagree with single-quantile path", sv)
	}
}

// TestServiceTimeQuantilesLargeColumnLean: past 2¹⁶ instances the quantiles
// come from a sample and one pass over the column, not from a copy of it —
// the tail and median of a Degree-1 burst allocate under 64 KB where the
// copy was 8 B an instance — and answer what the single-quantile path and a
// sort do. The hedge threshold over an execution column of the same size
// (dispatch's, for a faulty burst) is as lean.
func TestServiceTimeQuantilesLargeColumnLean(t *testing.T) {
	d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000}
	res, err := Run(AWSLambda(), Burst{Demand: d, Functions: 100_000, Degree: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const lean = 64 << 10
	if _, bytes := allocsOf(func() { res.ServiceTimeAtQuantiles(95, 50) }); bytes >= lean {
		t.Errorf("ServiceTimeAtQuantiles(95, 50) over %d instances allocates %d B, want < %d", res.Instances(), bytes, lean)
	}
	sv := res.ServiceTimeAtQuantiles(95, 50)
	ends := make([]float64, res.Instances())
	execs := make([]float64, res.Instances())
	for i := range ends {
		ends[i], execs[i] = res.End(i), res.End(i)-res.Start(i)
	}
	sort.Float64s(ends)
	for k, q := range []float64{95, 50} {
		if single, sorted := res.ServiceTimeAtQuantile(q), stats.QuantileSorted(ends, q)-res.firstStart(); sv[k] != single || sv[k] != sorted {
			t.Errorf("p%g: %v together, %v alone, %v sorted", q, sv[k], single, sorted)
		}
	}

	h := resilience.Hedge{Quantile: 95}
	if _, bytes := allocsOf(func() { h.Threshold(execs) }); bytes >= lean {
		t.Errorf("Hedge.Threshold over %d executions allocates %d B, want < %d", len(execs), bytes, lean)
	}
	got := h.Threshold(execs)
	sort.Float64s(execs)
	if want := stats.QuantileSorted(execs, 95); got != want {
		t.Errorf("hedge threshold %v, sorted p95 %v", got, want)
	}
}
