package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestRequestValidate pins every rule Request.Validate owns, its error text,
// and the order: weights before concurrency (as every entry point checks
// them), then the bound, the quantile, the cap, the failure model, the
// combinations (failure first), the grid.
func TestRequestValidate(t *testing.T) {
	const noFailureWith = "core: a failure model combines with neither a QoS bound nor a memory grid: only the weighted degree-only plan is reliability-aware"
	const noBoundWith = "core: a QoS bound combines with neither a quantile nor an instance cap: the Sec. 2.6 search bounds the p95 over every degree"
	nan := math.NaN()
	crash := FailureModel{CrashRate: 0.01, RetryDelaySec: 5}
	for _, tc := range []struct {
		name string
		r    Request
		want string
	}{
		{"weights", Request{C: 1000, Weights: Balanced()}, "<nil>"},
		{"bound", Request{C: 1000, Weights: Balanced(), QoSSec: 60}, "<nil>"},
		{"bound -0 is none", Request{C: 1000, Weights: Balanced(), QoSSec: math.Copysign(0, -1)}, "<nil>"},
		{"grid and bound", Request{C: 1000, Weights: Balanced(), QoSSec: 60, SizesMB: []float64{1024, 2048}}, "<nil>"},
		{"failure", Request{C: 1000, Weights: Balanced(), Failure: crash}, "<nil>"},
		{"disabled failure beside a bound and a grid", Request{C: 1000, Weights: Balanced(), QoSSec: 60,
			Failure: FailureModel{RetryDelaySec: 5}, SizesMB: []float64{1024}}, "<nil>"},
		{"quantile", Request{C: 1000, Weights: Balanced(), Quantile: 95}, "<nil>"},
		{"quantile 100", Request{C: 1000, Weights: Balanced(), Quantile: 100}, "<nil>"},
		{"quantile -0 is the total", Request{C: 1000, Weights: Balanced(), Quantile: math.Copysign(0, -1)}, "<nil>"},
		{"cap", Request{C: 1000, Weights: Balanced(), MaxInstances: 1}, "<nil>"},
		{"quantile, cap, failure and grid", Request{C: 1000, Weights: Balanced(), Quantile: 50, MaxInstances: 100,
			Failure: FailureModel{RetryDelaySec: 5}, SizesMB: []float64{1024}}, "<nil>"},
		{"quantile, cap and failure", Request{C: 1000, Weights: Balanced(), Quantile: 50, MaxInstances: 100, Failure: crash}, "<nil>"},
		{"bound with a zero quantile and cap", Request{C: 1000, Weights: Balanced(), QoSSec: 60, Quantile: math.Copysign(0, -1)}, "<nil>"},

		{"c = 0", Request{C: 0, Weights: Balanced()}, "core: concurrency 0 < 1"},
		{"weights off [0,1]", Request{C: 1000, Weights: Weights{2, -1}}, "core: weights outside [0,1]: {Service:2 Expense:-1}"},
		{"weights checked beside a bound", Request{C: 1000, Weights: Weights{nan, nan}, QoSSec: 60}, "core: weights outside [0,1]: {Service:NaN Expense:NaN}"},
		{"weights before c", Request{C: 0, Weights: Weights{}}, "core: weights must sum to 1, got 0"},
		{"NaN bound", Request{C: 1000, Weights: Balanced(), QoSSec: nan}, "core: QoS bound NaN is not a finite p95 bound in seconds ≥ 0 (0 for none)"},
		{"negative bound", Request{C: 1000, Weights: Balanced(), QoSSec: -1}, "core: QoS bound -1 is not a finite p95 bound in seconds ≥ 0 (0 for none)"},
		{"infinite bound", Request{C: 1000, Weights: Balanced(), QoSSec: math.Inf(1)}, "core: QoS bound +Inf is not a finite p95 bound in seconds ≥ 0 (0 for none)"},
		{"c before bound", Request{C: -3, Weights: Balanced(), QoSSec: -1}, "core: concurrency -3 < 1"},
		{"NaN quantile", Request{C: 1000, Weights: Balanced(), Quantile: nan}, "core: quantile NaN outside (0,100] (0 for the total)"},
		{"negative quantile", Request{C: 1000, Weights: Balanced(), Quantile: -5}, "core: quantile -5 outside (0,100] (0 for the total)"},
		{"quantile 120", Request{C: 1000, Weights: Balanced(), Quantile: 120}, "core: quantile 120 outside (0,100] (0 for the total)"},
		{"infinite quantile", Request{C: 1000, Weights: Balanced(), Quantile: math.Inf(1)}, "core: quantile +Inf outside (0,100] (0 for the total)"},
		{"bound before quantile", Request{C: 1000, Weights: Balanced(), QoSSec: -1, Quantile: nan}, "core: QoS bound -1 is not a finite p95 bound in seconds ≥ 0 (0 for none)"},
		{"negative cap", Request{C: 1000, Weights: Balanced(), MaxInstances: -1}, "core: instance cap -1 < 0 (0 for none)"},
		{"quantile before cap", Request{C: 1000, Weights: Balanced(), Quantile: 120, MaxInstances: -1}, "core: quantile 120 outside (0,100] (0 for the total)"},
		{"cap before failure model", Request{C: 1000, Weights: Balanced(), MaxInstances: -1, Failure: FailureModel{CrashRate: nan}}, "core: instance cap -1 < 0 (0 for none)"},
		{"failure model", Request{C: 1000, Weights: Balanced(), Failure: FailureModel{CrashRate: nan}}, "core: non-finite failure-model parameter {CrashRate:NaN RetryDelaySec:0}"},
		{"bound and failure", Request{C: 1000, Weights: Balanced(), QoSSec: 60, Failure: crash}, noFailureWith},
		{"grid and failure", Request{C: 1000, Weights: Balanced(), Failure: crash, SizesMB: []float64{1024}}, noFailureWith},
		{"bound and quantile", Request{C: 1000, Weights: Balanced(), QoSSec: 60, Quantile: 95}, noBoundWith},
		{"bound and quantile 100", Request{C: 1000, Weights: Balanced(), QoSSec: 60, Quantile: 100}, noBoundWith},
		{"bound and cap", Request{C: 1000, Weights: Balanced(), QoSSec: 60, MaxInstances: 500}, noBoundWith},
		{"bound, failure and cap: failure first", Request{C: 1000, Weights: Balanced(), QoSSec: 60, Failure: crash, MaxInstances: 500}, noFailureWith},
		{"bound and cap before grid", Request{C: 1000, Weights: Balanced(), QoSSec: 60, MaxInstances: 500, SizesMB: []float64{0}}, noBoundWith},
		{"shuffled grid", Request{C: 1000, Weights: Balanced(), SizesMB: []float64{2048, 1024}}, "core: memory size grid not strictly increasing: 1024 MB after 2048 MB"},
		{"zero size", Request{C: 1000, Weights: Balanced(), SizesMB: []float64{0}}, "core: non-positive memory size 0 MB"},
		{"infinite size", Request{C: 1000, Weights: Balanced(), SizesMB: []float64{math.Inf(1)}}, "core: non-finite memory size +Inf MB"},
	} {
		if got := errStr(tc.r.Validate()); got != tc.want {
			t.Errorf("%s: Validate() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestAnswerIsEachEntryPoint: Answer dispatches to the question its request
// names — the weighted plan, the bounded plan, the failure-folded plan, the
// plan at a service quantile and under an instance cap, and each over the
// memory grid or at its base size — bit for bit, on the uncached model stacks
// and on cached planners alike; every answer meets checkAnswer; and a cached
// weighted, quantile or capped answer allocates nothing.
func TestAnswerIsEachEntryPoint(t *testing.T) {
	const c = 1000
	m, g := stressModels(), stressGrid()
	sizes := g.MemSizesMB()
	w := Weights{Service: 0.3, Expense: 0.7}
	f := FailureModel{CrashRate: 0.005, RetryDelaySec: 5}
	pl := NewPlanner(m)
	jpl, err := NewJointPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	// The references come from fresh planners, so no answer below reads a
	// table its own reference built.
	ref := NewPlanner(m)
	jref, err := NewJointPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := m.TailServiceAt(c, Balanced(), 95) // met mid-way through the weight search
	if err != nil {
		t.Fatal(err)
	}
	jbound, err := jref.TailServiceAt(c, Balanced(), 95) // met at the base size
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.PlanFor(c, w)
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.Base().PlanFor(c, w)
	if err != nil {
		t.Fatal(err)
	}
	qos, qw, err := ref.QoSPlan(c, bound, QoSOptions{})
	if err != nil || qw != qos.Weights || qw == w {
		t.Fatalf("QoSPlan: weights %+v (plan's %+v), %v", qw, qos.Weights, err)
	}
	reliable := naiveReliablePlan(m, f, c, w)
	if reliable == plan {
		t.Fatalf("the failure model changes no plan: %+v", reliable)
	}
	joint, err := jref.PlanJointFor(c, w)
	if err != nil {
		t.Fatal(err)
	}
	jointQoS, _, err := jref.QoSPlanJoint(c, jbound, QoSOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// A degree-only request to a grid is answered at its base size. On a
	// two-size grid of the paper fixture that is synthModels' own degree.
	small := synthModels()
	small.ET.Alpha, small.RatePerInstanceSec = 0.2, small.RatePerInstanceSec/2
	synthGrid := GridModels{Sizes: []SizeModels{{MemMB: 1024, Models: small}, {MemMB: 2048, Models: synthModels()}}}
	synthPlanner, err := NewJointPlanner(synthGrid)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := synthModels().PlanFor(3000, Balanced())
	if err != nil || synth.Degree != 17 {
		t.Fatalf("synthModels at C=3000: degree %d (%v), want 17", synth.Degree, err)
	}
	synthRequest := Request{C: 3000, Weights: Balanced()}

	// A quantile and a cap: the naive scans at p95 and p50, and over the
	// degrees a 100-instance cap leaves (10 and up, where the weighted plan
	// packs 5 and the joint one 3).
	const maxInst = 100
	minDeg := CeilDiv(c, maxInst)
	gt := newGridTable(g, c)
	gridPlan := func(q float64, minDeg int) JointPlan {
		si, deg := naiveArgminGrid(g, c, q, minDeg, w)
		return gt.plan(si, deg, w)
	}
	tail := naivePlanAt(m, c, naiveArgminRegret(m, c, 95, 1, w), w)
	capped := naivePlanAt(m, c, naiveArgminRegret(m, c, 100, minDeg, w), w)
	jointMedian, jointCapped := gridPlan(50, 1), gridPlan(100, minDeg)
	if capped.Degree < minDeg || plan.Degree >= minDeg || jointCapped.Degree < minDeg || joint.Degree >= minDeg {
		t.Fatalf("the cap must bind on both plans: %+v, %+v", capped, jointCapped)
	}

	weighted := Request{C: c, Weights: w}
	bounded := Request{C: c, Weights: w, QoSSec: bound}
	failing := Request{C: c, Weights: w, Failure: f}
	atTail := Request{C: c, Weights: w, Quantile: 95}
	capping := Request{C: c, Weights: w, MaxInstances: maxInst}
	grid := Request{C: c, Weights: w, SizesMB: sizes}
	gridBounded := Request{C: c, Weights: w, QoSSec: jbound, SizesMB: sizes}
	gridMedian := Request{C: c, Weights: w, Quantile: 50, SizesMB: sizes}
	gridCapping := Request{C: c, Weights: w, MaxInstances: maxInst, SizesMB: sizes}
	folding := foldingPlanner(m, f)
	for _, tc := range []struct {
		name   string
		pl     *Planner                         // the planner checkAnswer judges by
		answer func(Request) (JointPlan, error) // pl.Answer, or its uncached stack's
		r      Request
		want   JointPlan
	}{
		{"Models, weights", m.direct(), m.Answer, weighted, JointPlan{Plan: plan}},
		{"Planner, weights", pl, pl.Answer, weighted, JointPlan{Plan: plan}},
		{"Models, bound", m.direct(), m.Answer, bounded, JointPlan{Plan: qos}},
		{"Planner, bound", pl, pl.Answer, bounded, JointPlan{Plan: qos}},
		{"Models, failure", folding, m.Answer, failing, JointPlan{Plan: reliable}},
		{"failure-folding planner, failure", folding, folding.Answer, failing, JointPlan{Plan: reliable}},
		{"Models, quantile", m.direct(), m.Answer, atTail, JointPlan{Plan: tail}},
		{"Planner, quantile", pl, pl.Answer, atTail, JointPlan{Plan: tail}},
		{"Models, cap", m.direct(), m.Answer, capping, JointPlan{Plan: capped}},
		{"Planner, cap", pl, pl.Answer, capping, JointPlan{Plan: capped}},
		{"GridModels, weights", g.direct(), g.Answer, grid, joint},
		{"joint Planner, weights", jpl, jpl.Answer, grid, joint},
		{"GridModels, bound", g.direct(), g.Answer, gridBounded, jointQoS},
		{"joint Planner, bound", jpl, jpl.Answer, gridBounded, jointQoS},
		{"GridModels, quantile", g.direct(), g.Answer, gridMedian, jointMedian},
		{"joint Planner, quantile", jpl, jpl.Answer, gridMedian, jointMedian},
		{"GridModels, cap", g.direct(), g.Answer, gridCapping, jointCapped},
		{"joint Planner, cap", jpl, jpl.Answer, gridCapping, jointCapped},
		{"GridModels, degree only", g.direct(), g.Answer, weighted, JointPlan{Plan: base}},
		{"joint Planner, degree only", jpl, jpl.Answer, weighted, JointPlan{Plan: base}},
		{"synthModels grid, degree only", synthGrid.direct(), synthGrid.Answer, synthRequest, JointPlan{Plan: synth}},
		{"synthModels joint Planner, degree only", synthPlanner, synthPlanner.Answer, synthRequest, JointPlan{Plan: synth}},
	} {
		got, err := tc.answer(tc.r)
		if err != nil || !jointPlanEq(got, tc.want) {
			t.Errorf("%s: Answer = %+v, %v; want %+v", tc.name, got, err, tc.want)
		} else if err := checkAnswer(tc.pl, tc.r, got); err != nil {
			t.Errorf("%s: Answer = %+v: %v", tc.name, got, err)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts measure the race detector")
	}
	for _, r := range []Request{weighted, atTail, capping} {
		if got := testing.AllocsPerRun(100, func() { pl.Answer(r) }); got != 0 {
			t.Errorf("cached Planner.Answer(%+v) allocates %.0f objects per call, want 0", r, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { jpl.Answer(grid) }); got != 0 {
		t.Errorf("cached joint Planner.Answer allocates %.0f objects per call, want 0", got)
	}
	// The uncached answer is a cold Advise's plan step: no dearer than PlanFor.
	want := testing.AllocsPerRun(100, func() { m.PlanFor(c, w) })
	if got := testing.AllocsPerRun(100, func() { m.Answer(weighted) }); got != want {
		t.Errorf("Models.Answer allocates %.0f objects per call, Models.PlanFor %.0f", got, want)
	}
}

// TestAnswerRefusesWhatThePlannerLacks: a planner answers only with the
// failure model and grid it was built over. It never drops a failure model
// the request carries, never folds one the request lacks, and never
// substitutes its own grid for the request's.
func TestAnswerRefusesWhatThePlannerLacks(t *testing.T) {
	const c = 1000
	m := stressModels()
	w := Balanced()
	f := FailureModel{CrashRate: 0.005, RetryDelaySec: 5}
	jpl, err := NewJointPlanner(stressGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		answer func() (JointPlan, error)
		want   string
	}{
		{"cached planner, failure model", func() (JointPlan, error) { return NewPlanner(m).Answer(Request{C: c, Weights: w, Failure: f}) },
			"core: the request's failure model {CrashRate:0.005 RetryDelaySec:5} is not the planner's {CrashRate:0 RetryDelaySec:0}"},
		{"failure-folding planner, no failure model", func() (JointPlan, error) {
			return foldingPlanner(m, f).Answer(Request{C: c, Weights: w})
		},
			"core: the request's failure model {CrashRate:0 RetryDelaySec:0} is not the planner's {CrashRate:0.005 RetryDelaySec:5}"},
		{"failure-folding planner, another failure model", func() (JointPlan, error) {
			return foldingPlanner(m, f).Answer(Request{C: c, Weights: w, Failure: FailureModel{CrashRate: 0.01}})
		}, "core: the request's failure model {CrashRate:0.01 RetryDelaySec:0} is not the planner's {CrashRate:0.005 RetryDelaySec:5}"},
		{"joint planner, another grid", func() (JointPlan, error) {
			return jpl.Answer(Request{C: c, Weights: w, SizesMB: []float64{2048, 4096}})
		},
			"core: the request's memory grid [2048 4096] MB is not the planner's"},
		{"planner without a grid", func() (JointPlan, error) {
			return NewPlanner(m).Answer(Request{C: c, Weights: w, SizesMB: []float64{2048}})
		},
			ErrNoGrid.Error()},
		{"invalid request", func() (JointPlan, error) { return NewPlanner(m).Answer(Request{C: 0, Weights: w}) },
			"core: concurrency 0 < 1"},
	} {
		if got, err := tc.answer(); errStr(err) != tc.want || got != (JointPlan{}) {
			t.Errorf("%s: Answer = %+v, %q; want the error %q", tc.name, got, errStr(err), tc.want)
		}
	}
	// A failure model that injects nothing is no failure model.
	if _, err := NewPlanner(m).Answer(Request{C: c, Weights: w, Failure: FailureModel{RetryDelaySec: 5}}); err != nil {
		t.Errorf("disabled failure model refused: %v", err)
	}
}

// foldingPlanner is the uncached planner Models.Answer builds for a request
// carrying f: its one row folds f.
func foldingPlanner(m Models, f FailureModel) *Planner {
	pl := m.direct()
	pl.cache.failure = f
	return pl
}

// checkAnswer is the postcondition of every plan pl answers to r, whatever
// the request asks, judged against pl's own table at r.C:
//   - the cell is one the request admits: MemMB is one of the request's
//     memory sizes (0 without a grid), the degree lies in [1, MaxDegree] of
//     that size, and under a cap ⌈C/P⌉ ≤ MaxInstances;
//   - the plan reads its cell: the request's concurrency, and the cell's
//     total service time and expense, bit for bit;
//   - on a row whose coefficients bound every cell (boundedRow), the service
//     time is finite and > 0 and the expense finite and ≥ 0, > 0 wherever
//     the cell's per-instance bill is;
//   - where every admitted row is bounded, the Eqs. 5–6 regrets of the cell
//     against the best admitted cells, at the request's quantile, are ≥ 0;
//   - under a QoS bound, the cell's p95 meets it.
func checkAnswer(pl *Planner, r Request, jp JointPlan) error {
	gc, q, minDeg := pl.cache, r.Quantile, 1
	if len(r.SizesMB) > 0 {
		gc = pl.grid
	}
	if q == 0 {
		q = 100
	}
	if r.MaxInstances > 0 {
		minDeg = CeilDiv(r.C, r.MaxInstances)
	}
	t, err := gc.Table(r.C)
	if err != nil {
		return err
	}
	si := slices.IndexFunc(t.sizes, func(s gridSize) bool { return s.memMB == jp.MemMB })
	if si < 0 {
		return fmt.Errorf("memory size %g MB is not one the request admits", jp.MemMB)
	}
	row, p := t.sizes[si].t, jp.Degree
	switch {
	case p < 1 || p > row.MaxDegree():
		return fmt.Errorf("degree %d outside [1, %d]", p, row.MaxDegree())
	case r.MaxInstances > 0 && CeilDiv(r.C, p) > r.MaxInstances:
		return fmt.Errorf("degree %d spawns %d instances over the cap %d", p, CeilDiv(r.C, p), r.MaxInstances)
	case jp.Concurrency != r.C || !f64eq(jp.PredictedServiceSec, row.service[p-1]) || !f64eq(jp.PredictedExpenseUSD, row.expense[p-1]):
		return fmt.Errorf("plan %+v does not read its cell (service %g, expense %g at C=%d)", jp, row.service[p-1], row.expense[p-1], r.C)
	case r.QoSSec > 0 && !(row.quantile(qosTailQuantile).vals[p-1] <= r.QoSSec):
		return fmt.Errorf("p95 %g misses the bound %g", row.quantile(qosTailQuantile).vals[p-1], r.QoSSec)
	}
	if !boundedRow(row, r.C) {
		return nil
	}
	// A measured cell may read 0; a modeled one is > 0 but for an unbilled
	// cell's expense.
	s, e := jp.PredictedServiceSec, jp.PredictedExpenseUSD
	strictS := !row.measured()
	strictE := strictS && row.m.ET.At(p)*row.m.RatePerInstanceSec+row.m.Storage.At(p) > 0
	if !finite(s, e) || !(s > 0 || !strictS && s == 0) || !(e > 0 || !strictE && e == 0) {
		return fmt.Errorf("service %g s or expense %g USD not finite and positive", s, e)
	}
	bestS, bestE := math.Inf(1), math.Inf(1)
	for _, sz := range t.sizes {
		if minDeg > sz.t.MaxDegree() {
			continue
		}
		if !boundedRow(sz.t, r.C) {
			return nil
		}
		bestS = min(bestS, slices.Min(sz.t.quantile(q).vals[minDeg-1:]))
		bestE = min(bestE, slices.Min(sz.t.expense[minDeg-1:]))
	}
	if dS, dE := fracRegret(row.quantile(q).vals[p-1], bestS), fracRegret(e, bestE); !(dS >= 0 && dE >= 0) {
		return fmt.Errorf("negative regrets (Eq. 5 %g, Eq. 6 %g) at q=%g", dS, dE, q)
	}
	return nil
}

// boundedRow reports whether a row's coefficients alone — never its instance
// counts — keep every cell at concurrency c finite, with ET(P) > 0: Eq. 2 is
// bounded by |β1|c² + |β2|c + |β3|, and the bill by (ET·R + storage)·c. A
// measured row is bounded by construction. Failure expectations are not
// bounded here.
func boundedRow(dt *DegreeTable, c int) bool {
	if dt.measured() {
		return true
	}
	m, n := dt.m, float64(c)
	scaling := math.Abs(m.Scaling.B1)*n*n + math.Abs(m.Scaling.B2)*n + math.Abs(m.Scaling.B3)
	for p := 1; p <= m.MaxDegree; p++ {
		et := m.ET.At(p)
		if !(et > 0) || !finite(et+scaling, (et*m.RatePerInstanceSec+m.Storage.At(p))*n) {
			return false
		}
	}
	return true
}
