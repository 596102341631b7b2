package core

import (
	"math"
	"testing"
)

// TestRequestValidate pins every rule Request.Validate owns, its error text,
// and the order: weights before concurrency (as every entry point checks
// them), then the bound, the failure model, the combinations, the grid.
func TestRequestValidate(t *testing.T) {
	const noFailureWith = "core: a failure model combines with neither a QoS bound nor a memory grid: only the weighted degree-only plan is reliability-aware"
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

		{"c = 0", Request{C: 0, Weights: Balanced()}, "core: concurrency 0 < 1"},
		{"weights off [0,1]", Request{C: 1000, Weights: Weights{2, -1}}, "core: weights outside [0,1]: {Service:2 Expense:-1}"},
		{"weights checked beside a bound", Request{C: 1000, Weights: Weights{nan, nan}, QoSSec: 60}, "core: weights outside [0,1]: {Service:NaN Expense:NaN}"},
		{"weights before c", Request{C: 0, Weights: Weights{}}, "core: weights must sum to 1, got 0"},
		{"NaN bound", Request{C: 1000, Weights: Balanced(), QoSSec: nan}, "core: QoS bound NaN is not a finite p95 bound in seconds ≥ 0 (0 for none)"},
		{"negative bound", Request{C: 1000, Weights: Balanced(), QoSSec: -1}, "core: QoS bound -1 is not a finite p95 bound in seconds ≥ 0 (0 for none)"},
		{"infinite bound", Request{C: 1000, Weights: Balanced(), QoSSec: math.Inf(1)}, "core: QoS bound +Inf is not a finite p95 bound in seconds ≥ 0 (0 for none)"},
		{"c before bound", Request{C: -3, Weights: Balanced(), QoSSec: -1}, "core: concurrency -3 < 1"},
		{"failure model", Request{C: 1000, Weights: Balanced(), Failure: FailureModel{CrashRate: nan}}, "core: non-finite failure-model parameter {CrashRate:NaN RetryDelaySec:0}"},
		{"bound and failure", Request{C: 1000, Weights: Balanced(), QoSSec: 60, Failure: crash}, noFailureWith},
		{"grid and failure", Request{C: 1000, Weights: Balanced(), Failure: crash, SizesMB: []float64{1024}}, noFailureWith},
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
// names — the weighted plan, the bounded plan, the failure-folded plan, and
// each over the memory grid or at its base size — bit for bit, on the
// uncached model stacks and on cached planners alike, and a cached weighted
// answer allocates nothing.
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

	weighted := Request{C: c, Weights: w}
	bounded := Request{C: c, Weights: w, QoSSec: bound}
	failing := Request{C: c, Weights: w, Failure: f}
	grid := Request{C: c, Weights: w, SizesMB: sizes}
	gridBounded := Request{C: c, Weights: w, QoSSec: jbound, SizesMB: sizes}
	for _, tc := range []struct {
		name   string
		answer func() (JointPlan, error)
		want   JointPlan
	}{
		{"Models, weights", func() (JointPlan, error) { return m.Answer(weighted) }, JointPlan{Plan: plan}},
		{"Planner, weights", func() (JointPlan, error) { return pl.Answer(weighted) }, JointPlan{Plan: plan}},
		{"Models, bound", func() (JointPlan, error) { return m.Answer(bounded) }, JointPlan{Plan: qos}},
		{"Planner, bound", func() (JointPlan, error) { return pl.Answer(bounded) }, JointPlan{Plan: qos}},
		{"Models, failure", func() (JointPlan, error) { return m.Answer(failing) }, JointPlan{Plan: reliable}},
		{"failure-folding planner, failure", func() (JointPlan, error) { return foldingPlanner(m, f).Answer(failing) }, JointPlan{Plan: reliable}},
		{"GridModels, weights", func() (JointPlan, error) { return g.Answer(grid) }, joint},
		{"joint Planner, weights", func() (JointPlan, error) { return jpl.Answer(grid) }, joint},
		{"GridModels, bound", func() (JointPlan, error) { return g.Answer(gridBounded) }, jointQoS},
		{"joint Planner, bound", func() (JointPlan, error) { return jpl.Answer(gridBounded) }, jointQoS},
		{"GridModels, degree only", func() (JointPlan, error) { return g.Answer(weighted) }, JointPlan{Plan: base}},
		{"joint Planner, degree only", func() (JointPlan, error) { return jpl.Answer(weighted) }, JointPlan{Plan: base}},
		{"synthModels grid, degree only", func() (JointPlan, error) { return synthGrid.Answer(synthRequest) }, JointPlan{Plan: synth}},
		{"synthModels joint Planner, degree only", func() (JointPlan, error) { return synthPlanner.Answer(synthRequest) }, JointPlan{Plan: synth}},
	} {
		if got, err := tc.answer(); err != nil || got != tc.want {
			t.Errorf("%s: Answer = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts measure the race detector")
	}
	if got := testing.AllocsPerRun(100, func() { pl.Answer(weighted) }); got != 0 {
		t.Errorf("cached Planner.Answer allocates %.0f objects per call, want 0", got)
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
