package core

import (
	"fmt"
	"math"
	"testing"
)

// Every fixed-size entry point answers through the one-row grid, so two
// things need pinning that the equivalence suites (valid inputs only) never
// see: the error text of the shared validation preamble must stay the
// fixed-size text — no "memory size … MB:" prefix leaking out of the grid —
// and the numeric boundaries (NaN, out-of-range quantiles, degenerate QoS
// steps) must be rejected there instead of reaching the search.

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
// validates: m(odels), w(eights), c(oncurrency), q(uantile), i(nstance cap).
type entryPoint struct {
	name string
	uses string
	call func(in entryInputs) error
}

func fixedSizeEntryPoints() []entryPoint {
	const qos = 1e6 // a bound every valid model meets
	return []entryPoint{
		{"Models.PlanFor", "mwc", func(in entryInputs) error {
			_, err := in.m.PlanFor(in.c, in.w)
			return err
		}},
		{"Models.TailServiceAt", "mwc", func(in entryInputs) error {
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
		{"Planner.OptimalDegreeForQuantile", "mwcq", func(in entryInputs) error {
			_, err := NewPlanner(in.m).OptimalDegreeForQuantile(in.c, in.q, in.w)
			return err
		}},
		{"Planner.OptimalDegreeConstrained", "mwci", func(in entryInputs) error {
			_, err := NewPlanner(in.m).OptimalDegreeConstrained(in.c, in.w, in.maxInst)
			return err
		}},
		{"Planner.PlanFor", "mwc", func(in entryInputs) error {
			_, err := NewPlanner(in.m).PlanFor(in.c, in.w)
			return err
		}},
		{"Planner.DegreeRange", "mwc", func(in entryInputs) error {
			_, _, err := NewPlanner(in.m).DegreeRange(in.c, in.w)
			return err
		}},
		{"Planner.TailServiceAt", "mwc", func(in entryInputs) error {
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
		{"q = 0", 'q', func(in *entryInputs) { in.q = 0 }, "core: quantile 0 outside (0,100]"},
		{"q > 100", 'q', func(in *entryInputs) { in.q = 100.5 }, "core: quantile 100.5 outside (0,100]"},
		{"instance cap too tight", 'i', func(in *entryInputs) { in.maxInst = 1 }, "core: concurrency 1000 cannot fit 1 instances even at degree 24"},
		// Precedence: models before weights before concurrency.
		{"bad models and weights", 'w', func(in *entryInputs) { in.m.MaxDegree = 0; in.w = Weights{0.9, 0.9} }, "core: max packing degree 0 < 1"},
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

	// QoS entry points judge the bound and options before the models.
	bad := stressModels()
	bad.MaxDegree = 0
	if _, _, err := NewPlanner(bad).QoSPlan(0, 0, QoSOptions{}); errStr(err) != "core: non-positive QoS bound 0" {
		t.Errorf("Planner.QoSPlan bound precedence: %v", err)
	}
	if _, _, err := NewPlanner(bad).QoSPlan(0, 10, QoSOptions{TailQuantile: 120}); errStr(err) != "core: tail quantile 120 outside (0,100]" {
		t.Errorf("Planner.QoSPlan precedence: %v", err)
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

	qos := func(qosSec float64, opts QoSOptions) map[string]func() error {
		return map[string]func() error{
			"Planner.QoSPlan":      func() error { _, _, err := pl.QoSPlan(c, qosSec, opts); return err },
			"Planner.QoSPlanJoint": func() error { _, _, err := jpl.QoSPlanJoint(c, qosSec, opts); return err },
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
			"Planner.OptimalDegreeForQuantile": func() error { _, err := pl.OptimalDegreeForQuantile(c, nan, w); return err },
		}},
	}
	for _, q := range []float64{500, -5, 0, nan} {
		cases = append(cases, boundaryCase{fmt.Sprintf("tail quantile %g", q), map[string]func() error{
			"Models.TailServiceAt":  func() error { _, err := m.TailServiceAt(c, w, q); return err },
			"Planner.TailServiceAt": func() error { _, err := pl.TailServiceAt(c, w, q); return err },
		}})
	}
	for _, tc := range []struct {
		name   string
		qosSec float64
		opts   QoSOptions
	}{
		{"QoS step NaN", 100, QoSOptions{Step: nan}},
		{"QoS step 1e-300", 100, QoSOptions{Step: 1e-300}},
		{"QoS step over the grid cap", 100, QoSOptions{Step: 1e-7}},
		{"QoS step -Inf", 100, QoSOptions{Step: math.Inf(-1)}},
		{"QoS bound NaN", nan, QoSOptions{}},
		{"QoS tail quantile NaN", 100, QoSOptions{TailQuantile: nan}},
	} {
		cases = append(cases, boundaryCase{tc.name, qos(tc.qosSec, tc.opts)})
	}

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
	// The finest step under the cap still searches.
	if _, _, err := pl.QoSPlan(c, 1e6, QoSOptions{Step: 1e-5}); err != nil {
		t.Errorf("step 1e-5 rejected: %v", err)
	}
}
