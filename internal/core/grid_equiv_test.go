package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The joint planner carries two equivalence contracts, both property-tested
// here with exact comparisons (floats with ==, errors by string):
//
//  1. A grid with a single memory size reproduces the 1-D planner's
//     answers byte-for-byte on every entry point — recommendations, plans,
//     weights, and error text.
//  2. The 2-D argmin and QoS search match naive references evaluated
//     straight off the Models predictors (naiveArgminGrid, naiveQoSJoint)
//     on every input, including degenerate model stacks with zero or NaN
//     cells.

// randSizeModels is randModels with occasional adversarial extremes: a zero
// expense rate makes the expense baseline 0, and with an overflowing ET
// curve the expense cells NaN (Inf·0) — the stacks where a zero weight must
// drop its term and where no regret may compare at all.
func randSizeModels(r *rand.Rand) Models {
	m := randModels(r)
	switch r.Intn(10) {
	case 0: // zero rate, zero storage: all-zero expense row
		m.RatePerInstanceSec = 0
		m.Storage = StorageModel{}
	case 1: // overflowing ET with a zero rate: NaN expense cells
		m.RatePerInstanceSec = 0
		m.Storage = StorageModel{}
		m.ET.Alpha = 400
		if r.Intn(2) == 0 {
			m.ET.Alpha = -400 // overflow at degree 1: a NaN first expense cell
			m.ET.Intercept = 2000
		}
	}
	return m
}

func randGrid(r *rand.Rand) GridModels {
	k := 1 + r.Intn(4)
	g := GridModels{Sizes: make([]SizeModels, k)}
	mem := 512 + 512*float64(r.Intn(4))
	for i := 0; i < k; i++ {
		g.Sizes[i] = SizeModels{MemMB: mem, Models: randSizeModels(r)}
		mem += 512 + 512*float64(r.Intn(4))
	}
	return g
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// Bit-pattern float equality: the identity contract is byte-for-byte, and
// degenerate model stacks legitimately produce NaN plan fields, where ==
// would report a spurious mismatch.
func f64eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func planEq(a, b Plan) bool {
	return a.Concurrency == b.Concurrency && a.Degree == b.Degree && a.Weights == b.Weights &&
		f64eq(a.PredictedServiceSec, b.PredictedServiceSec) &&
		f64eq(a.PredictedExpenseUSD, b.PredictedExpenseUSD) &&
		f64eq(a.BaselineServiceSec, b.BaselineServiceSec) &&
		f64eq(a.BaselineExpenseUSD, b.BaselineExpenseUSD)
}

func jointPlanEq(a, b JointPlan) bool { return planEq(a.Plan, b.Plan) && f64eq(a.MemMB, b.MemMB) }

// TestGridSingleSizeBitIdentity holds contract 1: every joint entry point
// on a one-size grid must agree with the corresponding 1-D entry point —
// same degrees, same plan floats, same weights, same error text — on both
// the GridModels path and the cached Planner path.
func TestGridSingleSizeBitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	quantiles := []float64{100, 95, 50, 99.5, 10}
	for trial := 0; trial < 300; trial++ {
		m := randSizeModels(r)
		memMB := 1024 + 512*float64(r.Intn(16))
		g := GridModels{Sizes: []SizeModels{{MemMB: memMB, Models: m}}}
		c := 1 + r.Intn(20000)
		w := randWeights(r)
		q := quantiles[trial%len(quantiles)]
		jpl, err := NewJointPlanner(g)
		if err != nil {
			t.Fatalf("trial %d: NewJointPlanner: %v", trial, err)
		}
		pl := NewPlanner(m)

		// The full plan, through Answer and the cached joint planner.
		sizes := []float64{memMB}
		wantPlan, wantErr := m.PlanFor(c, w)
		jointPlan, planErr := g.Answer(Request{C: c, Weights: w, SizesMB: sizes})
		if errStr(planErr) != errStr(wantErr) || !planEq(jointPlan.Plan, wantPlan) || (planErr == nil && jointPlan.MemMB != memMB) {
			t.Fatalf("trial %d: GridModels.Answer=(%+v,%v), 1-D=(%+v,%v)", trial, jointPlan, planErr, wantPlan, wantErr)
		}
		if answer, err := m.Answer(Request{C: c, Weights: w}); errStr(err) != errStr(wantErr) || !planEq(answer.Plan, wantPlan) {
			t.Fatalf("trial %d: Models.Answer=(%+v,%v), Models.PlanFor=(%+v,%v)", trial, answer, err, wantPlan, wantErr)
		}

		// The argmin at another quantile, at the joint planner's base size.
		gotDeg, gotErr := jpl.OptimalDegreeForQuantile(c, q, w)
		wantDeg, wantErr := pl.OptimalDegreeForQuantile(c, q, w)
		if errStr(gotErr) != errStr(wantErr) || gotDeg != wantDeg {
			t.Fatalf("trial %d: joint planner ForQuantile=(%d,%v), 1-D=(%d,%v)", trial, gotDeg, gotErr, wantDeg, wantErr)
		}

		// QoS: aim bounds across the feasibility spectrum, as the 1-D
		// equivalence suite does.
		opts := QoSOptions{Step: []float64{0, 0.05, 0.25, 0.7, 1}[trial%5]}
		tailQ := 95.0
		bestDeg, _ := naiveArgminColumn(g, c, Models.ServiceTime)
		worstDeg, _ := naiveArgminColumn(g, c, Models.Expense)
		lo := m.ServiceTimeQuantile(c, bestDeg, tailQ)
		hi := m.ServiceTimeQuantile(c, worstDeg, tailQ)
		qos := lo*0.5 + r.Float64()*(hi*1.5-lo*0.5)
		if !(qos > 0) {
			qos = lo + 1
		}
		if !(qos > 0) {
			qos = 1
		}
		wantP, wantW, wantErr := pl.QoSPlan(c, qos, opts)
		if opts == (QoSOptions{}) && !math.IsInf(qos, 1) { // a Request's bound is finite
			qosJP, qosErr := g.Answer(Request{C: c, Weights: w, QoSSec: qos, SizesMB: sizes})
			if errStr(qosErr) != errStr(wantErr) || (qosErr == nil && (qosJP.Weights != wantW || !planEq(qosJP.Plan, wantP))) {
				t.Fatalf("trial %d: GridModels.Answer with a bound=(%+v,%v), 1-D=(%+v,%+v,%v) (qos=%g)",
					trial, qosJP, qosErr, wantP, wantW, wantErr, qos)
			}
		}

		// The cached Planner path must agree verbatim, first call and hit.
		for pass := 0; pass < 2; pass++ {
			pPlan, pErr := jpl.PlanJointFor(c, w)
			if errStr(pErr) != errStr(planErr) || !jointPlanEq(pPlan, jointPlan) {
				t.Fatalf("trial %d pass %d: Planner.PlanJointFor=(%+v,%v), GridModels.Answer=(%+v,%v)",
					trial, pass, pPlan, pErr, jointPlan, planErr)
			}
			pJP, pW, pqErr := jpl.QoSPlanJoint(c, qos, opts)
			if errStr(pqErr) != errStr(wantErr) || pW != wantW || !planEq(pJP.Plan, wantP) || (pqErr == nil && pJP.MemMB != memMB) {
				t.Fatalf("trial %d pass %d: Planner.QoSPlanJoint=(%+v,%+v,%v), 1-D=(%+v,%+v,%v)",
					trial, pass, pJP, pW, pqErr, wantP, wantW, wantErr)
			}
		}
	}
}

// TestGridArgminMatchesNaive holds contract 2 for the argmin: the scan must
// return the naive reference's cell on randomized multi-size grids, across
// quantiles, restricted degree ranges, and weights — including the
// adversarial stacks whose baselines are NaN or zero.
func TestGridArgminMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	quantiles := []float64{100, 95, 50, 99.5, 10}
	for trial := 0; trial < 500; trial++ {
		g := randGrid(r)
		c := 1 + r.Intn(20000)
		gt := newGridTable(g, c)
		q := quantiles[trial%len(quantiles)]
		w := randWeights(r)
		minDeg := 1
		if r.Intn(3) == 0 {
			minDeg = 1 + r.Intn(gt.maxDegreeAny())
		}
		gsi, gdeg := gt.argminJoint(q, minDeg, w)
		wsi, wdeg := naiveArgminGrid(g, c, q, minDeg, w)
		if gsi != wsi || gdeg != wdeg {
			t.Fatalf("trial %d: argminJoint=(%d,%d), naive=(%d,%d) (q=%g minDeg=%d w=%+v grid=%+v c=%d)",
				trial, gsi, gdeg, wsi, wdeg, q, minDeg, w, g, c)
		}
	}
}

// naiveQoSJoint is the plain left-to-right weight-grid scan over naive joint
// argmins, with every tail read off the Models predictors: the reference
// QoSPlanJoint must agree with on every input.
func naiveQoSJoint(g GridModels, c int, qosSec, tailQ, step float64) (Weights, error) {
	n := qosGridSize(step)
	for j := 0; j < n; j++ {
		w := qosWeightAt(j, n, step)
		si, deg := naiveArgminGrid(g, c, 100, 1, w)
		if g.Sizes[si].Models.ServiceTimeQuantile(c, deg, tailQ) <= qosSec {
			return w, nil
		}
	}
	return Weights{}, fmt.Errorf("%w: bound %.3gs at concurrency %d", ErrQoSInfeasible, qosSec, c)
}

func TestGridQoSMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	steps := []float64{0, 0.05, 0.1, 0.25, 0.3, 0.7, 1}
	feasible := 0
	for trial := 0; trial < 300; trial++ {
		g := randGrid(r)
		c := 1 + r.Intn(20000)
		opts := QoSOptions{Step: steps[trial%len(steps)]}
		if r.Float64() < 0.3 {
			opts.TailQuantile = 50 + 50*r.Float64()
		}
		tailQ := opts.TailQuantile
		if tailQ == 0 {
			tailQ = 95
		}
		bsi, bdeg := naiveArgminGrid(g, c, 100, 1, ServiceOnly())
		esi, edeg := naiveArgminGrid(g, c, 100, 1, ExpenseOnly())
		lo := g.Sizes[bsi].Models.ServiceTimeQuantile(c, bdeg, tailQ)
		hi := g.Sizes[esi].Models.ServiceTimeQuantile(c, edeg, tailQ)
		qos := lo*0.5 + r.Float64()*(hi*1.5-lo*0.5)
		if !(qos > 0) {
			qos = lo + 1
		}
		if !(qos > 0) {
			qos = 1
		}

		step := opts.Step
		if step == 0 {
			step = 0.05
		}
		want, wantErr := naiveQoSJoint(g, c, qos, tailQ, step)
		jpl, err := NewJointPlanner(g)
		if err != nil {
			t.Fatal(err)
		}
		plan, got, gotErr := jpl.QoSPlanJoint(c, qos, opts)
		if errStr(gotErr) != errStr(wantErr) {
			t.Fatalf("trial %d: error mismatch: got %v, naive %v (qos=%g c=%d step=%g grid=%+v)",
				trial, gotErr, wantErr, qos, c, opts.Step, g)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrQoSInfeasible) {
				t.Fatalf("trial %d: wrong error kind: %v", trial, gotErr)
			}
			continue
		}
		feasible++
		if got != want {
			t.Fatalf("trial %d: QoSPlanJoint weights=%+v, naive=%+v (qos=%g c=%d step=%g)",
				trial, got, want, qos, c, opts.Step)
		}

		// The plan must be the joint plan at exactly those weights, and
		// Answer must ask the same question.
		si, deg := naiveArgminGrid(g, c, 100, 1, want)
		if wantPlan := newGridTable(g, c).plan(si, deg, want); !jointPlanEq(plan, wantPlan) {
			t.Fatalf("trial %d: QoSPlanJoint plan=%+v, oracle=%+v", trial, plan, wantPlan)
		}
		if opts == (QoSOptions{}) && !math.IsInf(qos, 1) { // a Request's bound is finite
			answer, err := g.Answer(Request{C: c, Weights: Balanced(), QoSSec: qos, SizesMB: g.MemSizesMB()})
			if err != nil || !jointPlanEq(answer, plan) {
				t.Fatalf("trial %d: GridModels.Answer=%+v (%v), QoSPlanJoint=%+v", trial, answer, err, plan)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible trials — generator too tight to test anything")
	}
}

// TestGridValidateTypedErrors pins the typed validation contract:
// non-monotone size grids surface ErrNonMonotoneSizes from every entrance
// (GridModels.Validate, BuildGridModels, GridProbesFor), and a per-size fit
// failure names the offending memory size while staying unwrappable to
// stats.ErrNonFinite (tested in grid_profile_test.go alongside the probe
// pipeline).
func TestGridValidateTypedErrors(t *testing.T) {
	m := Models{
		ET:                 ETModel{MfuncGB: 0.5, Alpha: 0.3},
		Scaling:            ScalingModel{B2: 0.004},
		RatePerInstanceSec: 1e-4,
		MaxDegree:          8,
	}
	bad := GridModels{Sizes: []SizeModels{
		{MemMB: 4096, Models: m},
		{MemMB: 2048, Models: m},
	}}
	if err := bad.Validate(); !errors.Is(err, ErrNonMonotoneSizes) {
		t.Fatalf("shuffled grid: got %v, want ErrNonMonotoneSizes", err)
	}
	dup := GridModels{Sizes: []SizeModels{
		{MemMB: 2048, Models: m},
		{MemMB: 2048, Models: m},
	}}
	if err := dup.Validate(); !errors.Is(err, ErrNonMonotoneSizes) {
		t.Fatalf("duplicate grid: got %v, want ErrNonMonotoneSizes", err)
	}
	if err := (GridModels{}).Validate(); err == nil {
		t.Fatal("empty grid: want error")
	}
	badModels := GridModels{Sizes: []SizeModels{{MemMB: 2048, Models: Models{}}}}
	err := badModels.Validate()
	if err == nil || !contains(err.Error(), "2048") {
		t.Fatalf("invalid size models: error %q must name the size", errStr(err))
	}
	ok := GridModels{Sizes: []SizeModels{{MemMB: 2048, Models: m}, {MemMB: 4096, Models: m}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	// The planner surfaces ErrNoGrid on joint calls without a grid.
	if _, err := NewPlanner(m).PlanJointFor(100, Balanced()); !errors.Is(err, ErrNoGrid) {
		t.Fatalf("grid-less planner: got %v, want ErrNoGrid", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// --- allocation and concurrency gates ----------------------------------------

func stressGrid() GridModels {
	scaling := ScalingModel{B1: 2e-6, B2: 0.004, B3: 0.1}
	mk := func(mem float64, alpha float64, maxDeg int) SizeModels {
		return SizeModels{MemMB: mem, Models: Models{
			ET:                 ETModel{MfuncGB: 0.5, Alpha: alpha, Intercept: 0.2},
			Scaling:            scaling,
			RatePerInstanceSec: mem / 1024 * 0.0000166667,
			MaxDegree:          maxDeg,
		}}
	}
	return GridModels{Sizes: []SizeModels{
		mk(2048, 0.61, 4),
		mk(4096, 0.48, 8),
		mk(6144, 0.39, 12),
		mk(8192, 0.34, 16),
		mk(10240, 0.30, 20),
	}}
}

// TestPlanJointAllocs is the 0-alloc gate on the cached joint hit path: once
// the grid table is resident, a joint plan is pure argmin scans over cached
// vectors — no closures, no slices, no boxing.
func TestPlanJointAllocs(t *testing.T) {
	g := stressGrid()
	pl, err := NewJointPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	w := Balanced()
	if _, err := pl.PlanJointFor(5000, w); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := pl.PlanJointFor(5000, w); err != nil {
			t.Error(err)
		}
	}); got != 0 {
		t.Errorf("Planner.PlanJointFor allocates %.0f objects per call in steady state, want 0", got)
	}
}

// TestJointPlannerConcurrent hammers the joint cached path from many
// goroutines (the race-stress CI job runs every *Concurrent* test under
// -race): results must be identical across goroutines and each grid table
// must build exactly once despite the stampede.
func TestJointPlannerConcurrent(t *testing.T) {
	g := stressGrid()
	pl, err := NewJointPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const levels = 24
	w := Balanced()
	baseline := make([]JointPlan, levels)
	for i := range baseline {
		p, err := pl.PlanJointFor(100*(i+1), w)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = p
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (gi + rep) % levels
				p, err := pl.PlanJointFor(100*(i+1), w)
				if err != nil {
					errs <- err
					return
				}
				if p != baseline[i] {
					errs <- fmt.Errorf("goroutine %d: plan %+v != baseline %+v", gi, p, baseline[i])
					return
				}
				jp, _, err := pl.QoSPlanJoint(100*(i+1), p.PredictedServiceSec*1.5, QoSOptions{})
				if err != nil && !errors.Is(err, ErrQoSInfeasible) {
					errs <- err
					return
				}
				_ = jp
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if builds := pl.grid.Builds(); builds != levels {
		t.Fatalf("grid cache built %d tables for %d distinct levels", builds, levels)
	}
}
