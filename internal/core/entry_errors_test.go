package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// Every fixed-size entry point answers through the one-row grid, so two
// things need pinning that the equivalence suites (valid inputs only) never
// see: the error text of the shared validation preamble must stay the
// fixed-size text — no "memory size … MB:" prefix leaking out of the grid —
// and the numeric boundaries (NaN, out-of-range quantiles and QoS bounds)
// must be rejected there instead of reaching the search.

// entryInputs is one call's worth of arguments; each entry point takes the
// subset it has parameters for.
type entryInputs struct {
	m       Models
	c       int
	w       Weights
	q       float64
	maxInst int
}

func validEntryInputs() entryInputs {
	return entryInputs{m: stressModels(), c: 1000, w: Balanced(), q: 95, maxInst: 0}
}

// entryPoint is one fixed-size method under test. uses lists the inputs it
// validates: m(odels), w(eights), c(oncurrency), q(uantile), i(nstance cap),
// and the order it judges them in: o for the models first (every method
// below but Answer), r for the request first (Answer: Request.Validate, then
// the models).
type entryPoint struct {
	name string
	uses string
	call func(in entryInputs) error
}

func fixedSizeEntryPoints() []entryPoint {
	const qos = 1e6 // a bound every valid model meets
	return []entryPoint{
		{"Models.PlanFor", "mwco", func(in entryInputs) error {
			_, err := in.m.PlanFor(in.c, in.w)
			return err
		}},
		{"Models.TailServiceAt", "mwco", func(in entryInputs) error {
			_, err := in.m.TailServiceAt(in.c, in.w, 95)
			return err
		}},
		{"NewDegreeTable", "mc", func(in entryInputs) error {
			_, err := NewDegreeTable(in.m, in.c)
			return err
		}},
		{"NewTableCache.Table", "mc", func(in entryInputs) error {
			_, err := NewTableCache(in.m, 0).Table(in.c)
			return err
		}},
		{"Planner.Answer at a quantile", "mwcqr", func(in entryInputs) error {
			_, err := NewPlanner(in.m).Answer(Request{C: in.c, Weights: in.w, Quantile: in.q})
			return err
		}},
		{"Planner.Answer under a cap", "mwcir", func(in entryInputs) error {
			_, err := NewPlanner(in.m).Answer(Request{C: in.c, Weights: in.w, MaxInstances: in.maxInst})
			return err
		}},
		{"Planner.PlanFor", "mwco", func(in entryInputs) error {
			_, err := NewPlanner(in.m).PlanFor(in.c, in.w)
			return err
		}},
		{"Planner.DegreeRange", "mwco", func(in entryInputs) error {
			_, _, err := NewPlanner(in.m).DegreeRange(in.c, in.w)
			return err
		}},
		{"Planner.TailServiceAt", "mwco", func(in entryInputs) error {
			_, err := NewPlanner(in.m).TailServiceAt(in.c, in.w, 95)
			return err
		}},
		{"Planner.QoSPlan", "mc", func(in entryInputs) error {
			_, _, err := NewPlanner(in.m).QoSPlan(in.c, qos, QoSOptions{})
			return err
		}},
		{"Planner.Table", "mc", func(in entryInputs) error {
			_, err := NewPlanner(in.m).Table(in.c)
			return err
		}},
	}
}

// TestFixedSizeEntryPointErrorText pins the exact error string of every
// fixed-size Models and Planner method, for each invalid input it checks.
func TestFixedSizeEntryPointErrorText(t *testing.T) {
	cases := []struct {
		name   string
		needs  byte // the input the case breaks; entry points not using it are skipped
		mutate func(in *entryInputs)
		want   string
	}{
		{"MaxDegree 0", 'm', func(in *entryInputs) { in.m.MaxDegree = 0 }, "core: max packing degree 0 < 1"},
		{"negative rate", 'm', func(in *entryInputs) { in.m.RatePerInstanceSec = -1 }, "core: negative expense rate"},
		{"missing Mfunc", 'm', func(in *entryInputs) { in.m.ET.MfuncGB = 0 }, "core: ET model missing Mfunc"},
		{"weights off the simplex", 'w', func(in *entryInputs) { in.w = Weights{0.9, 0.9} }, "core: weights must sum to 1, got 1.8"},
		{"weights out of range", 'w', func(in *entryInputs) { in.w = Weights{-0.1, 1.1} }, "core: weights outside [0,1]: {Service:-0.1 Expense:1.1}"},
		{"c = 0", 'c', func(in *entryInputs) { in.c = 0 }, "core: concurrency 0 < 1"},
		{"c < 0", 'c', func(in *entryInputs) { in.c = -7 }, "core: concurrency -7 < 1"},
		{"q < 0", 'q', func(in *entryInputs) { in.q = -1 }, "core: quantile -1 outside (0,100] (0 for the total)"},
		{"q > 100", 'q', func(in *entryInputs) { in.q = 100.5 }, "core: quantile 100.5 outside (0,100] (0 for the total)"},
		{"instance cap too tight", 'i', func(in *entryInputs) { in.maxInst = 1 }, "core: concurrency 1000 cannot fit 1 instances even at degree 24"},
		{"negative instance cap", 'i', func(in *entryInputs) { in.maxInst = -1 }, "core: instance cap -1 < 0 (0 for none)"},
		// Precedence: models before weights before concurrency, or, for a
		// request, weights before concurrency before the models.
		{"bad models and weights", 'o', func(in *entryInputs) { in.m.MaxDegree = 0; in.w = Weights{0.9, 0.9} }, "core: max packing degree 0 < 1"},
		{"bad models and weights, request first", 'r', func(in *entryInputs) { in.m.MaxDegree = 0; in.w = Weights{0.9, 0.9} }, "core: weights must sum to 1, got 1.8"},
		{"bad models and c, request first", 'r', func(in *entryInputs) { in.m.MaxDegree = 0; in.c = 0 }, "core: concurrency 0 < 1"},
		{"bad weights and c", 'w', func(in *entryInputs) { in.w = Weights{0.9, 0.9}; in.c = 0 }, "core: weights must sum to 1, got 1.8"},
	}
	for _, ep := range fixedSizeEntryPoints() {
		if err := ep.call(validEntryInputs()); err != nil {
			t.Errorf("%s: valid inputs rejected: %v", ep.name, err)
		}
		for _, tc := range cases {
			uses := false
			for i := range ep.uses {
				uses = uses || ep.uses[i] == tc.needs
			}
			if !uses {
				continue
			}
			in := validEntryInputs()
			tc.mutate(&in)
			if got := errStr(ep.call(in)); got != tc.want {
				t.Errorf("%s, %s: error %q, want %q", ep.name, tc.name, got, tc.want)
			}
		}
	}

	// QoS entry points judge the bound before the models.
	bad := stressModels()
	bad.MaxDegree = 0
	if _, _, err := NewPlanner(bad).QoSPlan(0, 0, QoSOptions{}); errStr(err) != "core: non-positive QoS bound 0" {
		t.Errorf("Planner.QoSPlan bound precedence: %v", err)
	}
	if _, _, err := NewPlanner(stressModels()).QoSPlan(5000, 1e-6, QoSOptions{}); errStr(err) != "core: no weighting satisfies the QoS bound: bound 1e-06s at concurrency 5000" {
		t.Errorf("infeasible QoS bound: %v", err)
	}
}

// TestNumericBoundaryInputsRejected is the regression table for the numeric
// boundaries the shared preamble now guards: each call must return an error
// — not panic, not answer degree 1 — and must not grow the cached row's
// quantile-column map (a NaN key never matches itself, so every call used to
// append one more column to the shared table).
func TestNumericBoundaryInputsRejected(t *testing.T) {
	nan := math.NaN()
	const c = 1000
	m, w := stressModels(), Balanced()
	pl := NewPlanner(m)
	jpl, err := NewJointPlanner(stressGrid())
	if err != nil {
		t.Fatal(err)
	}
	row, err := pl.Table(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.TailServiceAt(c, w, 95); err != nil { // one legitimate column
		t.Fatal(err)
	}
	columns := len(row.quantiles)

	qos := func(qosSec float64) map[string]func() error {
		return map[string]func() error{
			"Planner.QoSPlan":      func() error { _, _, err := pl.QoSPlan(c, qosSec, QoSOptions{}); return err },
			"Planner.QoSPlanJoint": func() error { _, _, err := jpl.QoSPlanJoint(c, qosSec, QoSOptions{}); return err },
		}
	}
	type boundaryCase struct {
		name  string
		calls map[string]func() error
	}
	cases := []boundaryCase{
		{"NaN weights", map[string]func() error{
			"Weights.Validate":     func() error { return Weights{nan, nan}.Validate() },
			"Models.PlanFor":       func() error { _, err := m.PlanFor(c, Weights{nan, nan}); return err },
			"Planner.PlanFor":      func() error { _, err := pl.PlanFor(c, Weights{nan, 1}); return err },
			"Planner.PlanJointFor": func() error { _, err := jpl.PlanJointFor(c, Weights{1, nan}); return err },
		}},
		{"NaN quantile", map[string]func() error{
			"Planner.Answer": func() error { _, err := pl.Answer(Request{C: c, Weights: w, Quantile: nan}); return err },
		}},
	}
	for _, q := range []float64{500, -5, 0, nan} {
		cases = append(cases, boundaryCase{fmt.Sprintf("tail quantile %g", q), map[string]func() error{
			"Models.TailServiceAt":  func() error { _, err := m.TailServiceAt(c, w, q); return err },
			"Planner.TailServiceAt": func() error { _, err := pl.TailServiceAt(c, w, q); return err },
		}})
	}
	cases = append(cases, boundaryCase{"QoS bound NaN", qos(nan)})

	for _, tc := range cases {
		for name, call := range tc.calls {
			for rep := 0; rep < 3; rep++ { // repeats would each leak a column
				func() {
					defer func() {
						if v := recover(); v != nil {
							t.Errorf("%s, %s: panicked: %v", tc.name, name, v)
						}
					}()
					if err := call(); err == nil {
						t.Errorf("%s, %s: accepted", tc.name, name)
					}
				}()
			}
		}
	}
	if got := len(row.quantiles); got != columns {
		t.Errorf("cached row grew from %d to %d quantile columns on rejected inputs", columns, got)
	}
}

// TestMeasuredPlannerRefuses: the planner over measured columns refuses
// columns it cannot plan over, and every question its columns do not answer
// — another concurrency, another quantile — rather than compute one from no
// model. The questions they do answer read the planner's own copy.
func TestMeasuredPlannerRefuses(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	col := func(v ...float64) []float64 { return v }
	ok := col(3, 2, 4)
	for _, tc := range []struct {
		name                         string
		c                            int
		total, tail, median, expense []float64
		want                         string
	}{
		{"no columns", 10, nil, nil, nil, nil, "core: measured columns of 0, 0, 0 and 0 cells: want one length ≥ 1"},
		{"empty columns", 10, col(), col(), col(), col(), "core: measured columns of 0, 0, 0 and 0 cells: want one length ≥ 1"},
		{"unequal columns", 10, ok, ok, col(1, 2), ok, "core: measured columns of 3, 3, 2 and 3 cells: want one length ≥ 1"},
		{"negative cell", 10, ok, ok, ok, col(1, -1, 1), "core: measured cell -1 at degree 2 is negative or not finite"},
		{"NaN cell", 10, col(nan, 1, 1), ok, ok, ok, "core: measured cell NaN at degree 1 is negative or not finite"},
		{"+Inf cell", 10, ok, col(1, 1, inf), ok, ok, "core: measured cell +Inf at degree 3 is negative or not finite"},
		{"concurrency 0", 0, ok, ok, ok, ok, "core: concurrency 0 < 1"},
	} {
		if _, err := MeasuredPlanner(tc.c, tc.total, tc.tail, tc.median, tc.expense); errStr(err) != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, errStr(err), tc.want)
		}
	}

	total := col(3, 2, 4)
	pl, err := MeasuredPlanner(10, total, ok, ok, ok)
	if err != nil {
		t.Fatal(err)
	}
	total[1] = 100 // the planner keeps its own copy
	w := Balanced()
	for _, q := range []float64{0, 100, 95, 50} {
		r := Request{C: 10, Weights: w, Quantile: q}
		if jp, err := pl.Answer(r); err != nil || jp.Degree != 2 {
			t.Errorf("q=%g: degree %d (%v), want 2", q, jp.Degree, err)
		} else if err := checkAnswer(pl, r, jp); err != nil {
			t.Errorf("q=%g: %v", q, err)
		}
	}
	if _, _, err := pl.QoSPlan(10, 5, QoSOptions{}); err != nil {
		t.Errorf("QoSPlan over the p95 column: %v", err)
	}
	var wg sync.WaitGroup // the one table serves concurrent callers
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if jp, err := pl.Answer(Request{C: 10, Weights: w, Quantile: []float64{100, 95, 50}[i%3]}); err != nil || jp.Degree != 2 {
					t.Errorf("concurrent call %d: degree %d (%v), want 2", i, jp.Degree, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for name, call := range map[string]func() error{
		"PlanFor at another concurrency": func() error { _, err := pl.PlanFor(11, w); return err },
		"Answer at another concurrency":  func() error { _, err := pl.Answer(Request{C: 9, Weights: w}); return err },
		"Answer at p99":                  func() error { _, err := pl.Answer(Request{C: 10, Weights: w, Quantile: 99}); return err },
		"TailServiceAt p75":              func() error { _, err := pl.TailServiceAt(10, w, 75); return err },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: answered", name)
		}
	}
	row, err := pl.Table(10)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a measured row computed a p75 column from no model")
		}
	}()
	row.ServiceTimeQuantile(1, 75)
}
