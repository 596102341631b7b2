package core

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func demoApps() []App {
	return []App{
		{Name: "cpu-bound", MemoryMB: 292, Count: 600,
			ET: ETModel{MfuncGB: 292.0 / 1024, Alpha: 0.25, Intercept: math.Log(100) - 0.25*292.0/1024}},
		{Name: "io-bound", MemoryMB: 341, Count: 600,
			ET: ETModel{MfuncGB: 341.0 / 1024, Alpha: 0.12, Intercept: math.Log(40) - 0.12*341.0/1024}},
	}
}

func demoMixedOpts() MixedPlanOptions {
	return MixedPlanOptions{
		InstanceMemoryMB:   10240,
		MaxExecSec:         900,
		Weights:            Balanced(),
		Scaling:            ScalingModel{B1: 2.4e-5, B2: 0.1, B3: -2},
		RatePerInstanceSec: 1.6667e-4,
	}
}

func TestPredictMixedETReducesToHomogeneous(t *testing.T) {
	a := demoApps()[0]
	for _, n := range []int{1, 4, 10} {
		mixed := PredictMixedET([]App{a}, []int{n}, 0)
		homog := a.ET.At(n)
		if math.Abs(mixed-homog) > 1e-9*homog {
			t.Fatalf("n=%d: mixed prediction %g ≠ Eq. 1 %g", n, mixed, homog)
		}
	}
}

func TestPredictMixedETLightNeighboursCheaper(t *testing.T) {
	apps := demoApps()
	// 4 CPU-bound functions alone vs 2 CPU-bound + 2 IO-bound.
	pure := PredictMixedET(apps, []int{4, 0}, 0)
	mixed := PredictMixedET(apps, []int{2, 2}, 0)
	if mixed >= pure {
		t.Fatalf("replacing heavy neighbours with light ones should shrink ET: %g vs %g", mixed, pure)
	}
	if PredictMixedET(apps, []int{0, 0}, 0) != 0 {
		t.Fatal("empty bin should predict 0")
	}
}

func TestDealCountsBalanced(t *testing.T) {
	apps := demoApps()
	for _, b := range []int{1, 7, 600, 1200} {
		counts := dealCounts(apps, b)
		if len(counts) != b {
			t.Fatalf("b=%d: got %d bins", b, len(counts))
		}
		totals := make([]int, len(apps))
		minLoad, maxLoad := math.MaxInt32, 0
		for _, bin := range counts {
			load := 0
			for k, n := range bin {
				if n < 0 {
					t.Fatalf("negative count")
				}
				totals[k] += n
				load += n
			}
			if load < minLoad {
				minLoad = load
			}
			if load > maxLoad {
				maxLoad = load
			}
		}
		for k, a := range apps {
			if totals[k] != a.Count {
				t.Fatalf("b=%d: app %d total %d, want %d", b, k, totals[k], a.Count)
			}
		}
		// Balance: loads within 2 of each other (one remainder per app).
		if maxLoad-minLoad > len(apps) {
			t.Fatalf("b=%d: unbalanced bins: min %d max %d", b, minLoad, maxLoad)
		}
		if b <= 1200 && minLoad == 0 {
			t.Fatalf("b=%d: empty bin despite enough functions", b)
		}
	}
}

func TestPlanMixedFeasibleAndConserving(t *testing.T) {
	apps := demoApps()
	plan, err := PlanMixed(apps, demoMixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Instances() < 1 {
		t.Fatal("no instances planned")
	}
	totals := make([]int, len(apps))
	for _, bin := range plan.BinCounts {
		var mem float64
		for k, n := range bin {
			totals[k] += n
			mem += float64(n) * apps[k].MemoryMB
		}
		if mem > demoMixedOpts().InstanceMemoryMB {
			t.Fatalf("bin exceeds instance memory: %g MB", mem)
		}
		if et := PredictMixedET(apps, bin, 0); et > demoMixedOpts().MaxExecSec {
			t.Fatalf("bin exceeds execution limit: %g s", et)
		}
	}
	for k, a := range apps {
		if totals[k] != a.Count {
			t.Fatalf("app %d: planned %d functions, want %d", k, totals[k], a.Count)
		}
	}
	// Packing must actually happen at this scale.
	if plan.Instances() >= apps[0].Count+apps[1].Count {
		t.Fatal("plan did not pack at all")
	}
	if plan.PredictedServiceSec <= 0 || plan.PredictedExpenseUSD <= 0 {
		t.Fatalf("degenerate predictions: %+v", plan)
	}
}

func TestPlanMixedWeightsShiftInstanceCount(t *testing.T) {
	apps := demoApps()
	opts := demoMixedOpts()
	opts.Weights = ServiceOnly()
	svc, err := PlanMixed(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Weights = ExpenseOnly()
	exp, err := PlanMixed(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Expense optimization packs more (fewer instances), as in Fig. 15.
	if exp.Instances() > svc.Instances() {
		t.Fatalf("expense-only should use ≤ instances than service-only: %d vs %d",
			exp.Instances(), svc.Instances())
	}
}

func TestPlanMixedErrors(t *testing.T) {
	if _, err := PlanMixed(nil, demoMixedOpts()); err == nil {
		t.Fatal("empty app set accepted")
	}
	bad := demoApps()
	bad[0].Count = 0
	if _, err := PlanMixed(bad, demoMixedOpts()); err == nil {
		t.Fatal("zero-count app accepted")
	}
	opts := demoMixedOpts()
	opts.InstanceMemoryMB = 0
	if _, err := PlanMixed(demoApps(), opts); err == nil {
		t.Fatal("zero instance memory accepted")
	}
	opts = demoMixedOpts()
	opts.Weights = Weights{2, -1}
	if _, err := PlanMixed(demoApps(), opts); err == nil {
		t.Fatal("bad weights accepted")
	}
	// A function bigger than the instance is infeasible at any B.
	huge := demoApps()
	huge[0].MemoryMB = 20000
	if _, err := PlanMixed(huge, demoMixedOpts()); err == nil {
		t.Fatal("oversized function accepted")
	}
}

// TestPlanMixedSkipsNaNCells: at a zero rate with no execution limit, a
// segregated candidate whose ET overflows bills Inf·0 = NaN. PlanMixed ranks
// its candidates as every other plan is ranked, so the NaN cell neither
// poisons the baselines nor wins, and the plan is the Eq. 7 argmin over the
// cells that compare — not the first candidate, at 6.2e173 s.
func TestPlanMixedSkipsNaNCells(t *testing.T) {
	apps := []App{
		{Name: "steep", MemoryMB: 128, Count: 10, ET: ETModel{MfuncGB: 0.125, Alpha: 1600}},
		{Name: "flat", MemoryMB: 128, Count: 100, ET: ETModel{MfuncGB: 0.125, Alpha: 0.1}},
	}
	opts := MixedPlanOptions{
		InstanceMemoryMB: 2048,
		MaxExecSec:       math.Inf(1),
		Weights:          Balanced(),
		Scaling:          ScalingModel{B2: 0.004, B3: 0.1},
	}
	svc, exp, bins := mixedCandidates(apps, opts)
	svc, exp = segregatedCandidates(apps, segregatedDegrees(apps, opts), opts, svc, exp)
	strategy := func(cell int) string {
		if cell < len(bins) {
			return "mixed"
		}
		return "segregated"
	}
	// The argmin over the comparable cells, with its baselines over them.
	var cells []int
	for i := range svc {
		if !math.IsNaN(svc[i]) && !math.IsNaN(exp[i]) {
			cells = append(cells, i)
		}
	}
	if len(cells) == len(svc) || math.IsNaN(exp[0]) {
		t.Fatalf("%d of %d candidates compare, the first expense %g: the case no longer reaches a NaN after the first cell",
			len(cells), len(svc), exp[0])
	}
	bestS, bestE := svc[cells[0]], exp[cells[0]]
	for _, i := range cells {
		bestS, bestE = math.Min(bestS, svc[i]), math.Min(bestE, exp[i])
	}
	want, wantVal := cells[0], math.Inf(1)
	for _, i := range cells {
		if v := opts.Weights.regret(fracRegret(svc[i], bestS), fracRegret(exp[i], bestE)); v < wantVal {
			want, wantVal = i, v
		}
	}
	got, err := PlanMixed(apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy != strategy(want) || got.PredictedServiceSec != svc[want] || got.PredictedExpenseUSD != exp[want] {
		t.Fatalf("PlanMixed = %s at %g s, %g USD; want %s at %g s, %g USD",
			got.Strategy, got.PredictedServiceSec, got.PredictedExpenseUSD, strategy(want), svc[want], exp[want])
	}
	t.Logf("%s plan predicting %.3g s (%d of %d candidates compare)", got.Strategy, got.PredictedServiceSec, len(cells), len(svc))
}

// TestPlanMixedTinyFootprint: an unclamped memory ratio made the tiny app's
// degree ceiling 1.024e10, which took the segregated family past its bound
// and had the app's single-app plan tabulate every one of those degrees —
// a 327 GB allocation, fatal. The ceiling stops at maxMixedFunctions, so the
// job plans at once and in little memory, every function accounted for.
func TestPlanMixedTinyFootprint(t *testing.T) {
	apps := []App{ // the tiny app's memory ratio is 1.024e10 functions to an instance
		{Name: "tiny", MemoryMB: 1e-6, Count: 3, ET: ETModel{MfuncGB: 1e-9, Alpha: 0.1, Intercept: 1}},
		{Name: "plain", MemoryMB: 256, Count: 3, ET: ETModel{MfuncGB: 0.25, Alpha: 0.1, Intercept: 1}},
	}
	opts := MixedPlanOptions{
		InstanceMemoryMB:   10240,
		MaxExecSec:         900,
		Weights:            Balanced(),
		Scaling:            ScalingModel{B2: 0.004, B3: 0.1},
		RatePerInstanceSec: 1e-4,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	plan, err := PlanMixed(apps, opts)
	el := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if el > time.Second {
		t.Errorf("planned in %v, want under 1 s", el)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("allocated %d bytes, want under 64 MB", got)
	}
	totals := make([]int, len(apps))
	for _, bin := range plan.BinCounts {
		for k, n := range bin {
			totals[k] += n
		}
	}
	if totals[0] != 3 || totals[1] != 3 {
		t.Fatalf("plan %+v holds %v functions, want [3 3]", plan, totals)
	}
	if got := degreeCeiling(apps[0], opts); got != maxMixedFunctions {
		t.Errorf("tiny app's ceiling %d, want %d", got, maxMixedFunctions)
	}
}

// TestPlanMixedCeilingFitsTheInstance steps one app's footprint by ulps
// around 10 240/67 MB. Just above it the quotient 10 240/MemoryMB still
// rounds to 67, a bin of 67 functions would need 10 240.000000000002 MB, and
// the ceiling must step down to 66: no bin of any plan outgrows the instance,
// and each ceiling is the largest degree whose bin fits.
func TestPlanMixedCeilingFitsTheInstance(t *testing.T) {
	opts := MixedPlanOptions{
		InstanceMemoryMB:   10240,
		MaxExecSec:         900,
		Weights:            Balanced(),
		Scaling:            ScalingModel{B2: 0.004, B3: 0.1},
		RatePerInstanceSec: 1e-4,
	}
	mem := math.Nextafter(10240.0/67, math.Inf(-1))
	mem = math.Nextafter(mem, math.Inf(-1))
	for step := -2; step <= 3; step++ {
		a := App{Name: "edge", MemoryMB: mem, Count: 67, ET: ETModel{MfuncGB: mem / 1024, Alpha: 0.01, Intercept: 1}}
		md := degreeCeiling(a, opts)
		if float64(md)*mem > opts.InstanceMemoryMB || float64(md+1)*mem <= opts.InstanceMemoryMB {
			t.Errorf("%+d ulps (%v MB): ceiling %d is not the largest degree that fits", step, mem, md)
		}
		plan, err := PlanMixed([]App{a}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, bin := range plan.BinCounts {
			if need := float64(bin[0]) * mem; need > opts.InstanceMemoryMB {
				t.Errorf("%+d ulps: bin %v needs %v MB of %v", step, bin, need, opts.InstanceMemoryMB)
			}
		}
		mem = math.Nextafter(mem, math.Inf(1))
	}
}

// Property: dealCounts conserves every app's function count for arbitrary
// app counts and bin counts.
func TestDealCountsConservationProperty(t *testing.T) {
	f := func(c1, c2 uint8, bRaw uint8) bool {
		apps := []App{
			{Name: "a", MemoryMB: 1, Count: int(c1) + 1, ET: ETModel{MfuncGB: 1, Alpha: 0.1}},
			{Name: "b", MemoryMB: 1, Count: int(c2) + 1, ET: ETModel{MfuncGB: 1, Alpha: 0.1}},
		}
		total := apps[0].Count + apps[1].Count
		b := int(bRaw)%total + 1
		counts := dealCounts(apps, b)
		sums := [2]int{}
		for _, bin := range counts {
			sums[0] += bin[0]
			sums[1] += bin[1]
		}
		return sums[0] == apps[0].Count && sums[1] == apps[1].Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
