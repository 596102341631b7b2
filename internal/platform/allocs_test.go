package platform

import (
	"runtime"
	"testing"

	"repro/internal/interfere"
)

// The burst hot path is allocation-lean: no per-instance degree slice, a
// single reused billing group descriptor, one copy-and-select for
// multi-quantile metrics, and — since the typed-dispatch rewrite — no event
// or control-plane closures at all. Steady state, the only O(n) allocations
// left in Run are the three column slabs the Result owns (45 B/instance, 77
// when the Config can inject faults); the row view is built only when a
// caller asks for Timelines(). The regression bounds below hold that line.

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
// minimum over a few runs (a GC-evicted pool entry being rebuilt inflates
// the odd run; the steady state is the floor).
func allocsOf(fn func()) (objects, bytes uint64) {
	objects, bytes = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for k := 0; k < 5; k++ {
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
// C=10⁴: a steady-state Run allocates the three column slabs — 45
// B/instance when the Config rolls no dice, 77 with the fault and hedge
// columns — plus a fixed handful of small objects and nothing else
// proportional to n, and asking the Result for its scaling time — all
// Advise's scaling probes ever do — allocates nothing at all, i.e. never
// materializes the row view. (trace.FromResult's share of the same gate is
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

func TestServiceTimeQuantilesAllocationLean(t *testing.T) {
	cfg := AWSLambda()
	d := interfere.Demand{CPUSeconds: 30, IOSeconds: 20, MemoryMB: 300, MemBWMBps: 2000}
	res, err := Run(cfg, Burst{Demand: d, Functions: 2000, Degree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One copy of the end column, the ranks and the result slice, regardless
	// of how many quantiles are requested.
	allocs := testing.AllocsPerRun(20, func() {
		res.ServiceTimeAtQuantiles(95, 50)
	})
	if allocs > 4 {
		t.Errorf("ServiceTimeAtQuantiles allocates %.0f objects per call, want ≤ 4", allocs)
	}
	// And both answers must agree with the single-quantile path.
	sv := res.ServiceTimeAtQuantiles(95, 50)
	if sv[0] != res.ServiceTimeAtQuantile(95) || sv[1] != res.ServiceTimeAtQuantile(50) {
		t.Errorf("multi-quantile answers %v disagree with single-quantile path", sv)
	}
}
