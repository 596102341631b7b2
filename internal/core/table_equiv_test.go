package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The table-backed planner promises bit-identical results to the naive
// formulation that recomputed the model vectors on every scan. These
// property tests hold it to that promise: every naive reference below
// evaluates the Models predictors degree by degree — the pre-table code
// path — and the randomized trials compare recommendations, plans, and
// errors for exact equality (floats compared with ==, never a tolerance).
//
// This is the first link of the planner's proof chain. There is one search
// (the fixed-size planner is the one-row grid), so these *MatchesNaive*
// suites prove it at one size; grid_equiv_test.go holds it to naiveArgminGrid
// at many sizes and a one-size grid to the degree-only answers; TestPlanForAllocs and TestPlanJointAllocs keep cached plans
// allocation-free. TestMixedCandidatesMatchesNaive holds the mixed planner's
// run walk to the per-bin sweep candidate by candidate.

// naiveArgminRegret is the Eq. 7 scan evaluated straight off the Models
// predictors, one call per degree, exactly like the pre-table optimizer.
func naiveArgminRegret(m Models, c int, q float64, minDeg int, w Weights) int {
	bestS, bestE := math.Inf(1), math.Inf(1)
	for d := minDeg; d <= m.MaxDegree; d++ {
		if s := m.ServiceTimeQuantile(c, d, q); s < bestS {
			bestS = s
		}
		if e := m.Expense(c, d); e < bestE {
			bestE = e
		}
	}
	best, bestVal := 0, math.Inf(1)
	for d := minDeg; d <= m.MaxDegree; d++ {
		dS := (m.ServiceTimeQuantile(c, d, q) - bestS) / bestS
		dE := (m.Expense(c, d) - bestE) / bestE
		if v := w.Service*dS + w.Expense*dE; v < bestVal {
			best, bestVal = d, v
		}
	}
	return best
}

// naiveArgminColumn is Eq. 3 (col = Models.ServiceTime) or Eq. 4 (col =
// Models.Expense) scanned straight off the predictors over every cell of g:
// sizes ascending, then degrees, first-wins strict <. On a one-size grid it
// is the degree-by-degree single-objective optimum. It returns the winning
// cell's degree and memory size.
func naiveArgminColumn(g GridModels, c int, col func(m Models, c, degree int) float64) (degree int, memMB float64) {
	degree, memMB = 1, g.Sizes[0].MemMB
	best := col(g.Sizes[0].Models, c, 1)
	for _, s := range g.Sizes {
		for d := 1; d <= s.Models.MaxDegree; d++ {
			if v := col(s.Models, c, d); v < best {
				degree, memMB, best = d, s.MemMB, v
			}
		}
	}
	return degree, memMB
}

// naiveArgminGrid is the Eq. 7 scan over every (size, degree) cell of g at
// degrees ≥ minDeg, evaluated straight off the Models predictors: the Eqs.
// 5–6 baselines are seeded from the first cell and folded with strict < in
// enumeration order (sizes ascending, then degrees), a zero weight drops its
// term, a zero baseline takes fracRegret's b → 0⁺ limit, the first strict-<
// regret wins, and the first cell stands when no regret compares. It returns the winning cell's size index and degree.
func naiveArgminGrid(g GridModels, c int, q float64, minDeg int, w Weights) (si, deg int) {
	type cell struct {
		si, deg int
		s, e    float64
	}
	var cells []cell
	for i, sz := range g.Sizes {
		for d := minDeg; d <= sz.Models.MaxDegree; d++ {
			cells = append(cells, cell{i, d, sz.Models.ServiceTimeQuantile(c, d, q), sz.Models.Expense(c, d)})
		}
	}
	bestS, bestE := cells[0].s, cells[0].e
	for _, x := range cells[1:] {
		if x.s < bestS {
			bestS = x.s
		}
		if x.e < bestE {
			bestE = x.e
		}
	}
	si, deg = cells[0].si, cells[0].deg
	bestVal := math.Inf(1)
	for _, x := range cells {
		var v float64
		if w.Service != 0 {
			v += w.Service * fracRegret(x.s, bestS)
		}
		if w.Expense != 0 {
			v += w.Expense * fracRegret(x.e, bestE)
		}
		if v < bestVal {
			si, deg, bestVal = x.si, x.deg, v
		}
	}
	return si, deg
}

// naivePlanFor assembles the Plan from direct Models predictions.
func naivePlanFor(m Models, c int, w Weights) Plan {
	deg := naiveArgminRegret(m, c, 100, 1, w)
	return Plan{
		Concurrency:         c,
		Degree:              deg,
		Weights:             w,
		PredictedServiceSec: m.ServiceTime(c, deg),
		PredictedExpenseUSD: m.Expense(c, deg),
		BaselineServiceSec:  m.ServiceTime(c, 1),
		BaselineExpenseUSD:  m.Expense(c, 1),
	}
}

// naiveQoSWeights is the plain left-to-right weight-grid scan over direct
// Models evaluations: the reference the planner's QoS search must agree
// with on every input.
func naiveQoSWeights(m Models, c int, qosSec, tailQ, step float64) (Weights, error) {
	n := qosGridSize(step)
	for j := 0; j < n; j++ {
		w := qosWeightAt(j, n, step)
		deg := naiveArgminRegret(m, c, 100, 1, w)
		if m.ServiceTimeQuantile(c, deg, tailQ) <= qosSec {
			return w, nil
		}
	}
	return Weights{}, fmt.Errorf("%w: bound %.3gs at concurrency %d", ErrQoSInfeasible, qosSec, c)
}

// qosPlanAt is the cache's QoS plan at a tail quantile and W_S step of the
// caller's choosing; at the search's own (qosTailQuantile, qosStep) it is the
// entry points' qosPlan itself.
func qosPlanAt(gc *GridCache, c int, qosSec, tailQ, step float64) (JointPlan, Weights, error) {
	if tailQ == qosTailQuantile && step == qosStep {
		return gc.qosPlan(c, qosSec)
	}
	t, err := gc.Table(c)
	if err != nil {
		return JointPlan{}, Weights{}, err
	}
	w, err := qosSearchJoint(t, qosSec, tailQ, step)
	if err != nil {
		return JointPlan{}, Weights{}, err
	}
	return t.planFor(w), w, nil
}

func randModels(r *rand.Rand) Models {
	alpha := 0.02 + 0.4*r.Float64()
	if r.Float64() < 0.15 {
		alpha = -alpha // non-monotone ET curves must work too
	}
	return Models{
		ET: ETModel{
			MfuncGB:   0.1 + 2*r.Float64(),
			Alpha:     alpha,
			Intercept: 2*r.Float64() - 0.5,
		},
		Scaling: ScalingModel{
			B1: r.Float64() * 1e-5,
			B2: r.Float64() * 0.01,
			B3: r.Float64() * 0.5,
		},
		Storage: StorageModel{
			PerInstanceUSD: r.Float64() * 1e-4,
			PerFunctionUSD: r.Float64() * 1e-5,
		},
		RatePerInstanceSec: r.Float64() * 1e-3,
		MaxDegree:          1 + r.Intn(64),
	}
}

func randWeights(r *rand.Rand) Weights {
	ws := float64(r.Intn(11)) / 10
	return Weights{Service: ws, Expense: 1 - ws}
}

// checkMeasuredIdentity holds MeasuredPlanner to the fitted planner whose
// columns it is given: over the fitted row's own total, p95, p50 and expense
// columns at c it must plan the fitted degree at q = 100, 95 and 50 and
// weights w. A row with a cell the constructor refuses — negative or not
// finite — must be refused, and one without must not be. It reports whether
// the identity was checked.
func checkMeasuredIdentity(t *testing.T, fitted *Planner, c int, w Weights) bool {
	t.Helper()
	row, err := fitted.Table(c)
	if err != nil {
		t.Fatal(err)
	}
	cols := [][]float64{row.service, row.quantile(95).vals, row.quantile(50).vals, row.expense}
	measured, err := MeasuredPlanner(c, cols[0], cols[1], cols[2], cols[3])
	refused := false
	for _, col := range cols {
		refused = refused || slices.ContainsFunc(col, func(x float64) bool { return !(x >= 0 && x <= math.MaxFloat64) })
	}
	if refused != (err != nil) {
		t.Fatalf("MeasuredPlanner over the columns %v: %v", cols, err)
	}
	if err != nil {
		return false
	}
	for _, q := range []float64{100, 95, 50} {
		got, gotErr := measured.OptimalDegreeForQuantile(c, q, w)
		want, wantErr := fitted.OptimalDegreeForQuantile(c, q, w)
		if gotErr != nil || wantErr != nil || got != want {
			t.Fatalf("q=%g w=%+v c=%d: measured degree %d (%v), fitted %d (%v); columns %v",
				q, w, c, got, gotErr, want, wantErr, cols)
		}
	}
	return true
}

func TestTablePlannerMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rw := rand.New(rand.NewSource(8)) // the measured identity's weights, off r's stream
	quantiles := []float64{100, 95, 50, 99.5, 10}
	measured := 0
	for trial := 0; trial < 300; trial++ {
		m := randModels(r)
		c := 1 + r.Intn(20000)
		w := randWeights(r)
		pl := NewPlanner(m)

		q := quantiles[trial%len(quantiles)]
		got, err := pl.OptimalDegreeForQuantile(c, q, w)
		if err != nil {
			t.Fatalf("trial %d: ForQuantile: %v", trial, err)
		}
		if want := naiveArgminRegret(m, c, q, 1, w); got != want {
			t.Fatalf("trial %d: ForQuantile(q=%g)=%d, naive=%d (m=%+v c=%d w=%+v)",
				trial, q, got, want, m, c, w)
		}
		plan, err := m.PlanFor(c, w)
		if err != nil {
			t.Fatalf("trial %d: PlanFor: %v", trial, err)
		}
		if want := naivePlanFor(m, c, w); plan != want {
			t.Fatalf("trial %d: PlanFor=%+v, naive=%+v", trial, plan, want)
		}

		// The Planner's cached path must agree with the Models path, on the
		// first call and on cache hits.
		for pass := 0; pass < 2; pass++ {
			pplan, err := pl.PlanFor(c, w)
			if err != nil || pplan != plan {
				t.Fatalf("trial %d pass %d: Planner.PlanFor=%+v (%v), Models=%+v", trial, pass, pplan, err, plan)
			}
			pdeg, err := pl.OptimalDegreeForQuantile(c, q, w)
			if err != nil || pdeg != got {
				t.Fatalf("trial %d pass %d: Planner.ForQuantile=%d (%v), first call=%d", trial, pass, pdeg, err, got)
			}
		}

		// The Oracle's planner over this row's own columns is this planner.
		ws := rw.Float64()
		for _, mw := range []Weights{w, {Service: ws, Expense: 1 - ws}} {
			if checkMeasuredIdentity(t, pl, c, mw) {
				measured++
			}
		}
	}
	if measured < 300 {
		t.Fatalf("the measured identity was checked at %d weights, want ≥ 300", measured)
	}
}

func TestConstrainedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		m := randModels(r)
		c := 1 + r.Intn(20000)
		w := randWeights(r)
		maxInst := r.Intn(2*c) - c/2 // includes ≤0 (unconstrained) and infeasibly tight
		pl := NewPlanner(m)
		got, gotErr := pl.OptimalDegreeConstrained(c, w, maxInst)

		minDeg := 1
		wantErr := false
		if maxInst > 0 {
			minDeg = (c + maxInst - 1) / maxInst
			wantErr = minDeg > m.MaxDegree
		}
		if wantErr {
			if gotErr == nil {
				t.Fatalf("trial %d: want infeasibility error, got degree %d", trial, got)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("trial %d: unexpected error %v", trial, gotErr)
		}
		if want := naiveArgminRegret(m, c, 100, minDeg, w); got != want {
			t.Fatalf("trial %d: Constrained=%d, naive=%d (c=%d maxInst=%d minDeg=%d)",
				trial, got, want, c, maxInst, minDeg)
		}
		pgot, err := pl.OptimalDegreeConstrained(c, w, maxInst)
		if err != nil || pgot != got {
			t.Fatalf("trial %d: cached Planner.Constrained=%d (%v), first call=%d", trial, pgot, err, got)
		}
	}
}

func TestQoSSearchMatchesNaiveGrid(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	steps := []float64{qosStep, 0.1, 0.25, 0.3, 0.7, 1}
	for trial := 0; trial < 400; trial++ {
		m := randModels(r)
		c := 1 + r.Intn(20000)
		step, tailQ := steps[trial%len(steps)], float64(qosTailQuantile)
		if r.Float64() < 0.3 {
			tailQ = 50 + 50*r.Float64()
		}

		// Aim bounds across the whole feasibility spectrum: below the best
		// achievable tail (infeasible), between best and worst, and above.
		bestDeg := naiveArgminRegret(m, c, 100, 1, ServiceOnly())
		worstDeg := naiveArgminRegret(m, c, 100, 1, ExpenseOnly())
		lo := m.ServiceTimeQuantile(c, bestDeg, tailQ)
		hi := m.ServiceTimeQuantile(c, worstDeg, tailQ)
		qos := lo*0.5 + r.Float64()*(hi*1.5-lo*0.5)
		if qos <= 0 {
			qos = lo + 1
		}

		want, wantErr := naiveQoSWeights(m, c, qos, tailQ, step)
		pl := NewPlanner(m)
		jp, got, gotErr := qosPlanAt(pl.cache, c, qos, tailQ, step)
		plan := jp.Plan
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error mismatch: got %v, naive %v (qos=%g c=%d step=%g)",
				trial, gotErr, wantErr, qos, c, step)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrQoSInfeasible) || !errors.Is(wantErr, ErrQoSInfeasible) {
				t.Fatalf("trial %d: wrong error kind: got %v, naive %v", trial, gotErr, wantErr)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: QoSPlan weights=%+v, naive=%+v (qos=%g c=%d step=%g)",
				trial, got, want, qos, c, step)
		}

		// The plan must be the plan at exactly those weights, on the first
		// call and on a cache hit, and Answer must ask the same question.
		if wantPlan := naivePlanFor(m, c, want); plan != wantPlan {
			t.Fatalf("trial %d: QoSPlan plan=%+v, naive=%+v", trial, plan, wantPlan)
		}
		plJP, plW, err := qosPlanAt(pl.cache, c, qos, tailQ, step)
		if err != nil || plW != want || plJP.Plan != plan {
			t.Fatalf("trial %d: cached Planner.QoSPlan=(%+v,%+v,%v), want (%+v,%+v)",
				trial, plJP.Plan, plW, err, plan, want)
		}
		if tailQ == qosTailQuantile && step == qosStep {
			answer, err := m.Answer(Request{C: c, Weights: Balanced(), QoSSec: qos})
			if err != nil || answer.Plan != plan {
				t.Fatalf("trial %d: Models.Answer=%+v (%v), QoSPlan=%+v", trial, answer.Plan, err, plan)
			}
		}
	}
}

func TestTailServiceAtMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		m := randModels(r)
		c := 1 + r.Intn(20000)
		w := randWeights(r)
		tailQ := 50 + 50*r.Float64()
		got, err := m.TailServiceAt(c, w, tailQ)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		deg := naiveArgminRegret(m, c, 100, 1, w)
		if want := m.ServiceTimeQuantile(c, deg, tailQ); got != want {
			t.Fatalf("trial %d: TailServiceAt=%g, naive=%g", trial, got, want)
		}
		pgot, err := NewPlanner(m).TailServiceAt(c, w, tailQ)
		if err != nil || pgot != got {
			t.Fatalf("trial %d: Planner.TailServiceAt=%g (%v), Models=%g", trial, pgot, err, got)
		}
	}
}

func TestDegreeTableAccessorsMatchModels(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		m := randModels(r)
		c := 1 + r.Intn(20000)
		tbl, err := NewDegreeTable(m, c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q := 50 + 50*r.Float64()
		for d := 1; d <= m.MaxDegree; d++ {
			if got, want := tbl.ServiceTime(d), m.ServiceTime(c, d); got != want {
				t.Fatalf("trial %d d=%d: ServiceTime %g != %g", trial, d, got, want)
			}
			if got, want := tbl.Expense(d), m.Expense(c, d); got != want {
				t.Fatalf("trial %d d=%d: Expense %g != %g", trial, d, got, want)
			}
			if got, want := tbl.ServiceTimeQuantile(d, q), m.ServiceTimeQuantile(c, d, q); got != want {
				t.Fatalf("trial %d d=%d: Quantile(%g) %g != %g", trial, d, q, got, want)
			}
			if got, want := tbl.ServiceTimeQuantile(d, 100), m.ServiceTime(c, d); got != want {
				t.Fatalf("trial %d d=%d: Quantile(100) %g != ServiceTime %g", trial, d, got, want)
			}
		}
	}
}

// len reports the number of cached values.
func (lc *lruCache) len() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.entries)
}

func TestTableCacheLRU(t *testing.T) {
	m := Models{
		ET:                 ETModel{MfuncGB: 0.5, Alpha: 0.3},
		Scaling:            ScalingModel{B1: 1e-6, B2: 0.004, B3: 0.1},
		RatePerInstanceSec: 1e-4,
		MaxDegree:          8,
	}
	tc := NewTableCache(m, 2)
	t1, _ := tc.Table(100)
	t2, _ := tc.Table(200)
	if tc.lru.len() != 2 {
		t.Fatalf("len=%d, want 2", tc.lru.len())
	}
	// Touch 100 so 200 becomes the LRU victim.
	if again, _ := tc.Table(100); again != t1 {
		t.Fatal("cache hit should return the same table")
	}
	t3, _ := tc.Table(300)
	if tc.lru.len() != 2 {
		t.Fatalf("len=%d after eviction, want 2", tc.lru.len())
	}
	if again, _ := tc.Table(100); again != t1 {
		t.Fatal("100 should have survived the eviction")
	}
	if again, _ := tc.Table(300); again != t3 {
		t.Fatal("300 should be cached")
	}
	if again, _ := tc.Table(200); again == t2 {
		t.Fatal("200 should have been evicted and rebuilt")
	}
	if _, err := tc.Table(0); err == nil {
		t.Fatal("want error for concurrency 0")
	}
}

// TestZeroGridCache: a GridCache no constructor built — the zero value —
// refuses with the zero Models' validation error, as NewTableCache(Models{}, 0)
// does, instead of building a table over an empty degree range, and has built
// nothing.
func TestZeroGridCache(t *testing.T) {
	var gc GridCache
	want := Models{}.Validate()
	if _, err := NewTableCache(Models{}, 0).Table(100); err == nil || err.Error() != want.Error() {
		t.Fatalf("NewTableCache(Models{}, 0).Table(100) = %v, want %v", err, want)
	}
	if _, err := gc.Table(100); err == nil || err.Error() != want.Error() {
		t.Fatalf("the zero GridCache's Table(100) = %v, want %v", err, want)
	}
	if n := gc.Builds(); n != 0 {
		t.Fatalf("the zero GridCache built %d tables, want 0", n)
	}
}

// TestTableCacheKeepsHotLevels holds the default capacity to one LRU:
// serve-mix's 8 hot levels, touched between every 2 fresh cold ones, stay
// resident, so only each level's first touch builds.
func TestTableCacheKeepsHotLevels(t *testing.T) {
	tc := NewTableCache(stressModels(), 0)
	hot := []int{500, 1000, 1500, 2000, 2500, 3000, 4000, 5000}
	for cold := 10_000; cold < 10_400; cold += 2 {
		for _, c := range append(hot, cold+1, cold+2) {
			if _, err := tc.Table(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := tc.Builds(), uint64(len(hot)+400); got != want {
		t.Fatalf("built %d tables, want %d: a hot level was evicted", got, want)
	}
}

// --- PlanMixed equivalence ---------------------------------------------------

// naiveMixedCand is one candidate as the pre-table heterogeneous sweep
// ranked it: its instance count (mixed) or its per-app degrees (segregated),
// with its bins built only for the winner.
type naiveMixedCand struct {
	strategy   string
	b          int
	degrees    []int
	serviceSec float64
	expenseUSD float64
}

// naivePlanMixed is a verbatim re-expression of the pre-optimization
// PlanMixed: every instance count materializes its full count matrix and
// re-runs PredictMixedET per bin; every degree combination recomputes each
// app's values at the leaf. Past 200 000 combinations each app's degree is
// its own Models.PlanFor optimum, the one combination left. Its math.Min
// baselines let a NaN cell poison every regret; randMixedCase's finite
// MaxExecSec never bills one, and TestPlanMixedSkipsNaNCells, not this
// reference, holds the NaN rule.
func naivePlanMixed(apps []App, opts MixedPlanOptions) (MixedPlan, error) {
	if len(apps) == 0 {
		return MixedPlan{}, fmt.Errorf("core: no apps to plan")
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return MixedPlan{}, err
		}
	}
	if err := opts.Weights.Validate(); err != nil {
		return MixedPlan{}, err
	}
	if opts.InstanceMemoryMB <= 0 || opts.MaxExecSec <= 0 || opts.RatePerInstanceSec < 0 ||
		opts.CrossDiscount < 0 || opts.CrossDiscount > 1 {
		return MixedPlan{}, fmt.Errorf("core: invalid mixed-plan options %+v", opts)
	}
	var cands []naiveMixedCand

	totalFuncs := 0
	var totalMem float64
	for _, a := range apps {
		totalFuncs += a.Count
		totalMem += float64(a.Count) * a.MemoryMB
	}
	minBins := int(math.Ceil(totalMem / opts.InstanceMemoryMB))
	if minBins < 1 {
		minBins = 1
	}
	svc, exp, bins := mixedCandidatesNaive(apps, opts, minBins, totalFuncs)
	for i, b := range bins {
		cands = append(cands, naiveMixedCand{strategy: "mixed", b: b, serviceSec: svc[i], expenseUSD: exp[i]})
	}

	if maxDegs, combos := naiveDegreeCeilings(apps, opts); maxDegs != nil {
		lists := make([][]int, len(apps))
		for k, md := range maxDegs {
			if combos <= 200000 {
				for d := 1; d <= md; d++ {
					lists[k] = append(lists[k], d)
				}
				continue
			}
			m := Models{ET: apps[k].ET, Scaling: opts.Scaling, RatePerInstanceSec: opts.RatePerInstanceSec, MaxDegree: md}
			plan, err := m.PlanFor(apps[k].Count, opts.Weights)
			if err != nil {
				return MixedPlan{}, err
			}
			lists[k] = []int{plan.Degree}
		}
		degrees := make([]int, len(apps))
		var walk func(k int)
		walk = func(k int) {
			if k == len(apps) {
				bins := 0
				var maxET, sumET float64
				for i, a := range apps {
					d := degrees[i]
					n := (a.Count + d - 1) / d
					bins += n
					et := a.ET.At(d)
					sumET += float64(n) * et
					if et > maxET {
						maxET = et
					}
				}
				cands = append(cands, naiveMixedCand{
					strategy:   "segregated",
					degrees:    slices.Clone(degrees),
					serviceSec: maxET + opts.Scaling.At(float64(bins)),
					expenseUSD: sumET * opts.RatePerInstanceSec,
				})
				return
			}
			for _, d := range lists[k] {
				degrees[k] = d
				walk(k + 1)
			}
		}
		walk(0)
	}
	if len(cands) == 0 {
		return MixedPlan{}, fmt.Errorf("core: no feasible heterogeneous packing (memory or latency bound)")
	}
	bestS, bestE := math.Inf(1), math.Inf(1)
	for _, c := range cands {
		bestS = math.Min(bestS, c.serviceSec)
		bestE = math.Min(bestE, c.expenseUSD)
	}
	best, bestVal := cands[0], math.Inf(1) // the first stands when no regret compares
	for _, c := range cands {
		var v float64 // a zero weight drops its term; a zero baseline takes the b → 0⁺ limit
		if opts.Weights.Service != 0 {
			v += opts.Weights.Service * fracRegret(c.serviceSec, bestS)
		}
		if opts.Weights.Expense != 0 {
			v += opts.Weights.Expense * fracRegret(c.expenseUSD, bestE)
		}
		if v < bestVal {
			best, bestVal = c, v
		}
	}
	plan := MixedPlan{
		Apps:                apps,
		Strategy:            best.strategy,
		PredictedServiceSec: best.serviceSec,
		PredictedExpenseUSD: best.expenseUSD,
	}
	if best.strategy == "mixed" {
		plan.BinCounts = dealCounts(apps, best.b)
		return plan, nil
	}
	for k, a := range apps {
		for left := a.Count; left > 0; left -= best.degrees[k] {
			bin := make([]int, len(apps))
			bin[k] = min(left, best.degrees[k])
			plan.BinCounts = append(plan.BinCounts, bin)
		}
	}
	return plan, nil
}

// naiveDegreeCeilings is each app's highest degree within the instance
// memory (at most 20 000, the most functions a job holds) and the execution
// limit, and the number of combinations they make; nil if some app fits
// no degree.
func naiveDegreeCeilings(apps []App, opts MixedPlanOptions) (maxDegs []int, combos float64) {
	combos = 1
	for _, a := range apps {
		md := int(math.Min(opts.InstanceMemoryMB/a.MemoryMB, 20000))
		for md > 0 && float64(md)*a.MemoryMB > opts.InstanceMemoryMB { // the quotient may round up
			md--
		}
		for md > 1 && a.ET.At(md) > opts.MaxExecSec {
			md--
		}
		if md < 1 {
			return nil, 0
		}
		maxDegs = append(maxDegs, md)
		combos *= float64(md)
	}
	return maxDegs, combos
}

// randMixedCase draws a job of minApps to maxApps apps. Three apps' degrees
// stay within 200 000 combinations; most jobs of four or more go past.
func randMixedCase(r *rand.Rand, minApps, maxApps int) ([]App, MixedPlanOptions) {
	k := minApps + r.Intn(maxApps-minApps+1)
	apps := make([]App, k)
	for i := range apps {
		mem := 128 + float64(r.Intn(8))*128
		alpha := 0.05 + 0.4*r.Float64()
		if r.Float64() < 0.15 {
			alpha = -alpha
		}
		apps[i] = App{
			Name:     fmt.Sprintf("app%d", i),
			MemoryMB: mem,
			Count:    1 + r.Intn(50),
			ET:       ETModel{MfuncGB: mem / 1024, Alpha: alpha, Intercept: r.Float64()},
		}
	}
	opts := MixedPlanOptions{
		InstanceMemoryMB:   2048 + float64(r.Intn(8))*1024,
		MaxExecSec:         20 + 900*r.Float64(),
		Weights:            randWeights(r),
		Scaling:            ScalingModel{B1: r.Float64() * 1e-5, B2: r.Float64() * 0.01, B3: r.Float64() * 0.3},
		RatePerInstanceSec: r.Float64() * 1e-3,
		CrossDiscount:      r.Float64() * 0.6,
	}
	return apps, opts
}

// TestPlanMixedMatchesNaive holds PlanMixed to the naive sweep on random
// jobs: some at a zero rate, where every expense is 0, the expense regret is
// its b → 0⁺ limit 0 and the service regret decides, some service-only
// (Weights{1, 0}), some both, where the zero expense weight drops the term.
// A plan must name a candidate — the first, when none compares — never come
// back empty. Every fourth trial draws four to six apps, whose degrees
// mostly combine past the segregated walk's bound.
func TestPlanMixedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	feasible, infeasible, past := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		minApps, maxApps := 1, 3
		if trial%4 == 3 {
			minApps, maxApps = 4, 6
		}
		apps, opts := randMixedCase(r, minApps, maxApps)
		if _, combos := naiveDegreeCeilings(apps, opts); combos > 200000 {
			past++
		}
		switch trial % 5 {
		case 1:
			opts.RatePerInstanceSec = 0
		case 2:
			opts.Weights = Weights{Service: 1, Expense: 0}
		case 3:
			opts.RatePerInstanceSec, opts.Weights = 0, Weights{Service: 1, Expense: 0}
		}
		got, gotErr := PlanMixed(apps, opts)
		want, wantErr := naivePlanMixed(apps, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error mismatch: got %v, naive %v (apps=%+v opts=%+v)",
				trial, gotErr, wantErr, apps, opts)
		}
		if gotErr != nil {
			infeasible++
			continue
		}
		feasible++
		if got.Strategy == "" || len(got.BinCounts) == 0 {
			t.Fatalf("trial %d: PlanMixed returned an empty plan %+v (opts=%+v)", trial, got, opts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: PlanMixed=%+v, naive=%+v (apps=%+v opts=%+v)",
				trial, got, want, apps, opts)
		}
	}
	if feasible == 0 || past == 0 {
		t.Fatalf("%d feasible trials, %d past 200 000 combinations — generator too tight to test anything", feasible, past)
	}
	t.Logf("feasible=%d infeasible=%d past the bound=%d", feasible, infeasible, past)
}

// --- allocation regressions --------------------------------------------------

func TestPlanForAllocs(t *testing.T) {
	m := Models{
		ET:                 ETModel{MfuncGB: 0.5, Alpha: 0.3, Intercept: 0.2},
		Scaling:            ScalingModel{B1: 2e-6, B2: 0.004, B3: 0.1},
		RatePerInstanceSec: 0.0001667,
		MaxDegree:          20,
	}
	w := Balanced()
	pl := NewPlanner(m)
	if _, err := pl.PlanFor(5000, w); err != nil {
		t.Fatal(err)
	}
	// Steady state: the table is cached, the scan is allocation-free.
	if got := testing.AllocsPerRun(200, func() {
		if _, err := pl.PlanFor(5000, w); err != nil {
			t.Error(err)
		}
	}); got != 0 {
		t.Errorf("Planner.PlanFor allocates %.0f objects per call in steady state, want 0", got)
	}
	// Uncached: one table build — a handful of allocations, not O(MaxDegree).
	if got := testing.AllocsPerRun(200, func() {
		if _, err := m.PlanFor(5000, w); err != nil {
			t.Error(err)
		}
	}); got > 4 {
		t.Errorf("Models.PlanFor allocates %.0f objects per call, want ≤ 4", got)
	}
}

// mixedCandidatesNaive is the per-bin evaluation of the mixed family —
// dealCounts' B×K matrix, every bin's memory and ET recomputed — that the
// run walk in mixedCandidates must reproduce candidate for candidate.
func mixedCandidatesNaive(apps []App, opts MixedPlanOptions, minBins, totalFuncs int) (svc, exp []float64, bins []int) {
	for b := minBins; b <= totalFuncs; b++ {
		counts := dealCounts(apps, b)
		feasible := true
		var maxET, sumET float64
		for _, binCounts := range counts {
			var mem float64
			for k, n := range binCounts {
				mem += float64(n) * apps[k].MemoryMB
			}
			if mem > opts.InstanceMemoryMB {
				feasible = false
				break
			}
			et := PredictMixedET(apps, binCounts, opts.CrossDiscount)
			if et > opts.MaxExecSec {
				feasible = false
				break
			}
			sumET += et
			if et > maxET {
				maxET = et
			}
		}
		if !feasible {
			continue
		}
		svc = append(svc, maxET+opts.Scaling.At(float64(b)))
		exp = append(exp, sumET*opts.RatePerInstanceSec)
		bins = append(bins, b)
	}
	return svc, exp, bins
}

// TestMixedCandidatesMatchesNaive holds the run walk to the per-bin
// evaluation candidate for candidate, not only on the winner
// TestPlanMixedMatchesNaive compares: the same instance counts survive, and
// each one's service and expense are Float64bits-equal. Up to six apps with
// counts that leave remainders of every kind (none, wrapping past the last
// bin, covering every bin) exercise the cut points, and 64- and 70-app jobs
// the compositions too wide for a one-bit-per-app remainder mask.
func TestMixedCandidatesMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	// compare checks one job and returns the number of candidates compared.
	compare := func(what string, apps []App, opts MixedPlanOptions) int {
		totalFuncs := 0
		for _, a := range apps {
			totalFuncs += a.Count
		}
		svc, exp, bins := mixedCandidates(apps, opts)
		wantSvc, wantExp, wantBins := mixedCandidatesNaive(apps, opts, 1, totalFuncs)
		// The naive sweep starts at one bin; the walk starts at its memory
		// floor, below which the naive sweep finds nothing feasible either.
		if len(bins) != len(wantBins) || len(svc) != len(bins) || len(exp) != len(bins) {
			t.Fatalf("%s: %d candidates (%d, %d cells), per-bin sweep %d (apps=%+v opts=%+v)",
				what, len(bins), len(svc), len(exp), len(wantBins), apps, opts)
		}
		for i := range bins {
			if bins[i] != wantBins[i] || math.Float64bits(svc[i]) != math.Float64bits(wantSvc[i]) ||
				math.Float64bits(exp[i]) != math.Float64bits(wantExp[i]) {
				t.Fatalf("%s cand %d: %d bins at %g s, %g USD; per-bin sweep %d bins at %g s, %g USD (apps=%+v)",
					what, i, bins[i], svc[i], exp[i], wantBins[i], wantSvc[i], wantExp[i], apps)
			}
		}
		return len(bins)
	}
	compared := 0
	for trial := 0; trial < 300; trial++ {
		apps, opts := randMixedCase(r, 1, 3)
		for len(apps) < 1+trial%6 {
			a := apps[r.Intn(len(apps))]
			a.Count = 1 + r.Intn(70)
			apps = append(apps, a)
		}
		compared += compare(fmt.Sprintf("trial %d", trial), apps, opts)
	}
	if compared == 0 {
		t.Fatal("no feasible candidates — generator too tight to test anything")
	}
	wide := 0
	for _, k := range []int{64, 70} {
		for trial := 0; trial < 3; trial++ {
			apps, opts := randMixedCase(r, 1, 3)
			for len(apps) < k {
				a := apps[r.Intn(len(apps))]
				a.Count = 1 + r.Intn(3)
				apps = append(apps, a)
			}
			wide += compare(fmt.Sprintf("%d apps, trial %d", k, trial), apps, opts)
		}
	}
	t.Logf("%d candidates compared, %d more with ≥ 64 apps", compared, wide)
	if wide == 0 {
		t.Fatal("no feasible candidate with ≥ 64 apps — generator too tight to test anything")
	}
}

// TestSegregatedCandidatesMatchesNaive holds the segregated walk to a
// per-leaf loop cell by cell, on both sides of its 200 000-combination
// bound: below it every app's list is 1 … its ceiling, past it the one
// degree the app's own Models.PlanFor picks. Leaf by leaf, in odometer
// order, decodeCombo must read back the leaf's degrees, and its service and
// expense must be Float64bits-equal to the loop's, appended after the cells
// already in the columns. Every sixth job makes one app's ET overflow at a
// zero rate with no execution limit, so NaN cells are compared too.
func TestSegregatedCandidatesMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	below, past, cells := 0, 0, 0
	for trial := 0; trial < 90; trial++ {
		n := 1 + trial%6
		apps, opts := randMixedCase(r, n, n)
		if trial%6 == 5 {
			apps[0].ET.Alpha, opts.MaxExecSec, opts.RatePerInstanceSec = 1600, math.Inf(1), 0
		}
		maxDegs, combos := naiveDegreeCeilings(apps, opts)
		degrees := segregatedDegrees(apps, opts)
		if maxDegs == nil {
			if degrees != nil {
				t.Fatalf("trial %d: lists %v for a job some app of which fits no degree", trial, degrees)
			}
			continue
		}
		for k, md := range maxDegs {
			var want []int
			if combos <= 200000 {
				for d := 1; d <= md; d++ {
					want = append(want, d)
				}
			} else {
				m := Models{ET: apps[k].ET, Scaling: opts.Scaling, RatePerInstanceSec: opts.RatePerInstanceSec, MaxDegree: md}
				plan, err := m.PlanFor(apps[k].Count, opts.Weights)
				if err != nil {
					t.Fatal(err)
				}
				want = []int{plan.Degree}
			}
			if !slices.Equal(degrees[k], want) {
				t.Fatalf("trial %d app %d: degrees %v, want %v (ceiling %d, %g combinations)", trial, k, degrees[k], want, md, combos)
			}
		}
		svc, exp := segregatedCandidates(apps, degrees, opts, []float64{-1}, []float64{-2})
		if svc[0] != -1 || exp[0] != -2 {
			t.Fatalf("trial %d: the cells before the walk's became %g, %g", trial, svc[0], exp[0])
		}
		odometer := make([]int, len(apps))
		combo := make([]int, len(apps))
		leaf := 0
		for more := true; more; leaf++ {
			for k := range apps {
				combo[k] = degrees[k][odometer[k]]
			}
			if got := decodeCombo(leaf, degrees); !slices.Equal(got, combo) {
				t.Fatalf("trial %d leaf %d: decodeCombo = %v, want %v", trial, leaf, got, combo)
			}
			bins := 0
			var sumET, maxET float64
			for k, a := range apps {
				d := combo[k]
				n := (a.Count + d - 1) / d
				et := a.ET.At(d)
				bins += n
				sumET += float64(n) * et
				if et > maxET {
					maxET = et
				}
			}
			wantS, wantE := maxET+opts.Scaling.At(float64(bins)), sumET*opts.RatePerInstanceSec
			if 1+leaf >= len(svc) || math.Float64bits(svc[1+leaf]) != math.Float64bits(wantS) ||
				math.Float64bits(exp[1+leaf]) != math.Float64bits(wantE) {
				t.Fatalf("trial %d leaf %d (degrees %v): cells out of step with the per-leaf loop's %g s, %g USD", trial, leaf, combo, wantS, wantE)
			}
			more = false
			for k := len(apps) - 1; k >= 0 && !more; k-- {
				odometer[k] = (odometer[k] + 1) % len(degrees[k])
				more = odometer[k] != 0
			}
		}
		if len(svc) != 1+leaf || len(exp) != 1+leaf {
			t.Fatalf("trial %d: %d and %d cells, want %d", trial, len(svc), len(exp), 1+leaf)
		}
		cells += leaf
		if combos > 200000 {
			past++
		} else {
			below++
		}
	}
	if below == 0 || past == 0 {
		t.Fatalf("%d jobs below the bound, %d past it: generator too tight to test both sides", below, past)
	}
	t.Logf("%d cells compared over %d jobs below the bound and %d past it", cells, below, past)
}
