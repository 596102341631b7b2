package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The table-backed planner promises bit-identical results to the naive
// formulation that recomputed the model vectors on every scan. These
// property tests hold it to that promise: every naive reference below
// evaluates the Models predictors degree by degree — the pre-table code
// path — and the randomized trials compare recommendations, plans, and
// errors for exact equality (floats compared with ==, never a tolerance).

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
// Models evaluations: the reference the pruned/binary-searched qosSearch
// must agree with on every input.
func naiveQoSWeights(m Models, c int, qosSec float64, opts QoSOptions) (Weights, error) {
	tailQ, step, err := opts.normalize(qosSec)
	if err != nil {
		return Weights{}, err
	}
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

func TestTablePlannerMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	quantiles := []float64{100, 95, 50, 99.5, 10}
	for trial := 0; trial < 300; trial++ {
		m := randModels(r)
		c := 1 + r.Intn(20000)
		w := randWeights(r)
		pl := NewPlanner(m)

		if got, want := m.OptimalDegreeService(c), naiveArgminRegret(m, c, 100, 1, ServiceOnly()); got != want {
			t.Fatalf("trial %d: OptimalDegreeService=%d, naive=%d (m=%+v c=%d)", trial, got, want, m, c)
		}
		if got, want := m.OptimalDegreeExpense(c), naiveArgminRegret(m, c, 100, 1, ExpenseOnly()); got != want {
			t.Fatalf("trial %d: OptimalDegreeExpense=%d, naive=%d", trial, got, want)
		}
		q := quantiles[trial%len(quantiles)]
		got, err := m.OptimalDegreeForQuantile(c, q, w)
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
				t.Fatalf("trial %d pass %d: Planner.ForQuantile=%d (%v), Models=%d", trial, pass, pdeg, err, got)
			}
		}
	}
}

func TestConstrainedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		m := randModels(r)
		c := 1 + r.Intn(20000)
		w := randWeights(r)
		maxInst := r.Intn(2*c) - c/2 // includes ≤0 (unconstrained) and infeasibly tight
		got, gotErr := m.OptimalDegreeConstrained(c, w, maxInst)

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
		pgot, err := NewPlanner(m).OptimalDegreeConstrained(c, w, maxInst)
		if err != nil || pgot != got {
			t.Fatalf("trial %d: Planner.Constrained=%d (%v), Models=%d", trial, pgot, err, got)
		}
	}
}

func TestQoSSearchMatchesNaiveGrid(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	steps := []float64{0, 0.05, 0.1, 0.25, 0.3, 0.7, 1}
	for trial := 0; trial < 400; trial++ {
		m := randModels(r)
		c := 1 + r.Intn(20000)
		opts := QoSOptions{Step: steps[trial%len(steps)]}
		if r.Float64() < 0.3 {
			opts.TailQuantile = 50 + 50*r.Float64()
		}

		// Aim bounds across the whole feasibility spectrum: below the best
		// achievable tail (infeasible), between best and worst, and above.
		tailQ := opts.TailQuantile
		if tailQ == 0 {
			tailQ = 95
		}
		bestDeg := naiveArgminRegret(m, c, 100, 1, ServiceOnly())
		worstDeg := naiveArgminRegret(m, c, 100, 1, ExpenseOnly())
		lo := m.ServiceTimeQuantile(c, bestDeg, tailQ)
		hi := m.ServiceTimeQuantile(c, worstDeg, tailQ)
		qos := lo*0.5 + r.Float64()*(hi*1.5-lo*0.5)
		if qos <= 0 {
			qos = lo + 1
		}

		want, wantErr := naiveQoSWeights(m, c, qos, opts)
		got, gotErr := m.QoSWeights(c, qos, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error mismatch: got %v, naive %v (qos=%g c=%d step=%g)",
				trial, gotErr, wantErr, qos, c, opts.Step)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrQoSInfeasible) || !errors.Is(wantErr, ErrQoSInfeasible) {
				t.Fatalf("trial %d: wrong error kind: got %v, naive %v", trial, gotErr, wantErr)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: QoSWeights=%+v, naive=%+v (qos=%g c=%d step=%g)",
				trial, got, want, qos, c, opts.Step)
		}

		// QoSPlan must pick the plan at exactly those weights, and the
		// Planner path must agree verbatim.
		plan, pw, err := m.QoSPlan(c, qos, opts)
		if err != nil || pw != want {
			t.Fatalf("trial %d: QoSPlan weights=%+v (%v), want %+v", trial, pw, err, want)
		}
		if wantPlan := naivePlanFor(m, c, want); plan != wantPlan {
			t.Fatalf("trial %d: QoSPlan plan=%+v, naive=%+v", trial, plan, wantPlan)
		}
		pl := NewPlanner(m)
		plPlan, plW, err := pl.QoSPlan(c, qos, opts)
		if err != nil || plW != want || plPlan != plan {
			t.Fatalf("trial %d: Planner.QoSPlan=(%+v,%+v,%v), want (%+v,%+v)",
				trial, plPlan, plW, err, plan, want)
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
	if tc.Len() != 2 {
		t.Fatalf("len=%d, want 2", tc.Len())
	}
	// Touch 100 so 200 becomes the LRU victim.
	if again, _ := tc.Table(100); again != t1 {
		t.Fatal("cache hit should return the same table")
	}
	t3, _ := tc.Table(300)
	if tc.Len() != 2 {
		t.Fatalf("len=%d after eviction, want 2", tc.Len())
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

// --- PlanMixed equivalence ---------------------------------------------------

// naiveMixedCand is a fully materialized candidate, as the pre-table
// heterogeneous sweep built them.
type naiveMixedCand struct {
	strategy   string
	bins       [][]int
	serviceSec float64
	expenseUSD float64
}

// naivePlanMixed is a verbatim re-expression of the pre-optimization
// PlanMixed: every instance count materializes its full count matrix and
// re-runs PredictMixedET per bin; every degree combination recomputes each
// app's values at the leaf.
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
		cands = append(cands, naiveMixedCand{
			strategy:   "mixed",
			bins:       counts,
			serviceSec: maxET + opts.Scaling.At(float64(b)),
			expenseUSD: sumET * opts.RatePerInstanceSec,
		})
	}

	maxDegs := make([]int, len(apps))
	segFeasible := true
	for k, a := range apps {
		md := int(opts.InstanceMemoryMB / a.MemoryMB)
		for md > 1 && a.ET.At(md) > opts.MaxExecSec {
			md--
		}
		if md < 1 {
			segFeasible = false
			break
		}
		maxDegs[k] = md
	}
	if segFeasible {
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
				chosen := append([]int(nil), degrees...)
				cands = append(cands, naiveMixedCand{
					strategy:   "segregated",
					bins:       segregatedBins(apps, chosen),
					serviceSec: maxET + opts.Scaling.At(float64(bins)),
					expenseUSD: sumET * opts.RatePerInstanceSec,
				})
				return
			}
			for d := 1; d <= maxDegs[k]; d++ {
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
		v := opts.Weights.Service*(c.serviceSec-bestS)/bestS +
			opts.Weights.Expense*(c.expenseUSD-bestE)/bestE
		if v < bestVal {
			best, bestVal = c, v
		}
	}
	return MixedPlan{
		Apps:                apps,
		BinCounts:           best.bins,
		Strategy:            best.strategy,
		PredictedServiceSec: best.serviceSec,
		PredictedExpenseUSD: best.expenseUSD,
	}, nil
}

func randMixedCase(r *rand.Rand) ([]App, MixedPlanOptions) {
	k := 1 + r.Intn(3)
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
// jobs: some at a zero rate, where every expense regret is 0/0 and no regret
// compares, some service-only (Weights{1, 0}), some both. A plan must name a
// candidate — the first, when none compares — never come back empty.
func TestPlanMixedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 150; trial++ {
		apps, opts := randMixedCase(r)
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
	if feasible == 0 {
		t.Fatal("no feasible trials — generator too tight to test anything")
	}
	t.Logf("feasible=%d infeasible=%d", feasible, infeasible)
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
func mixedCandidatesNaive(apps []App, opts MixedPlanOptions, minBins, totalFuncs int) []heteroCandidate {
	var cands []heteroCandidate
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
		cands = append(cands, heteroCandidate{
			strategy:   "mixed",
			bins:       b,
			serviceSec: maxET + opts.Scaling.At(float64(b)),
			expenseUSD: sumET * opts.RatePerInstanceSec,
		})
	}
	return cands
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
		got := mixedCandidates(apps, opts)
		want := mixedCandidatesNaive(apps, opts, 1, totalFuncs)
		// The naive sweep starts at one bin; the walk starts at its memory
		// floor, below which the naive sweep finds nothing feasible either.
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, per-bin sweep %d (apps=%+v opts=%+v)", what, len(got), len(want), apps, opts)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.bins != w.bins || math.Float64bits(g.serviceSec) != math.Float64bits(w.serviceSec) ||
				math.Float64bits(g.expenseUSD) != math.Float64bits(w.expenseUSD) {
				t.Fatalf("%s cand %d: %+v, per-bin sweep %+v (apps=%+v)", what, i, g, w, apps)
			}
		}
		return len(got)
	}
	compared := 0
	for trial := 0; trial < 300; trial++ {
		apps, opts := randMixedCase(r)
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
			apps, opts := randMixedCase(r)
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
