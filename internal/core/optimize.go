package core

import (
	"fmt"
)

// Weights are the objective weights of Eq. 7: W_S on service time, W_E on
// expense. They must be in [0,1] and sum to 1.
type Weights struct {
	Service float64
	Expense float64
}

// Balanced is the paper's default: equal importance to both objectives.
func Balanced() Weights { return Weights{Service: 0.5, Expense: 0.5} }

// ServiceOnly optimizes service time alone ("ProPack (Service Time)").
func ServiceOnly() Weights { return Weights{Service: 1, Expense: 0} }

// ExpenseOnly optimizes expense alone ("ProPack (Expense)").
func ExpenseOnly() Weights { return Weights{Service: 0, Expense: 1} }

// Validate reports an error for malformed weights. The range guard is
// written !(lo ≤ x ≤ hi) so that NaN fails it.
func (w Weights) Validate() error {
	const eps = 1e-9
	if !(w.Service >= -eps && w.Service <= 1+eps && w.Expense >= -eps && w.Expense <= 1+eps) {
		return fmt.Errorf("core: weights outside [0,1]: %+v", w)
	}
	if s := w.Service + w.Expense; s < 1-1e-6 || s > 1+1e-6 {
		return fmt.Errorf("core: weights must sum to 1, got %g", s)
	}
	return nil
}

// checkInputs is the validation preamble every planning entry point shares,
// in the order their error contracts pin: the model stack's verdict — the
// caller's Models.Validate or GridModels.Validate result, so fixed-size
// errors never carry a grid's "memory size … MB:" prefix — then the weights,
// for entry points that take any, then the concurrency.
func checkInputs(modelErr error, w *Weights, c int) error {
	if modelErr != nil {
		return modelErr
	}
	if w != nil {
		if err := w.Validate(); err != nil {
			return err
		}
	}
	if c < 1 {
		return fmt.Errorf("core: concurrency %d < 1", c)
	}
	return nil
}

// checkQuantile rejects service-time quantiles outside (0,100], NaN included.
func checkQuantile(q float64) error {
	if !(q > 0 && q <= 100) {
		return fmt.Errorf("core: quantile %g outside (0,100]", q)
	}
	return nil
}

// OptimalDegreeService is Eq. 3: the packing degree minimizing modeled
// total service time at concurrency c.
func (m Models) OptimalDegreeService(c int) int {
	_, deg := newRowTable(m, FailureModel{}, c).argminService()
	return deg
}

// OptimalDegreeExpense is Eq. 4: the packing degree minimizing modeled
// expense at concurrency c.
func (m Models) OptimalDegreeExpense(c int) int {
	_, deg := newRowTable(m, FailureModel{}, c).argminExpense()
	return deg
}

// OptimalDegree is Eq. 7: the packing degree minimizing the weighted sum of
// fractional regrets from the two single-objective optima (Eqs. 5–6).
func (m Models) OptimalDegree(c int, w Weights) (int, error) {
	return m.OptimalDegreeForQuantile(c, 100, w)
}

// OptimalDegreeForQuantile is Eq. 7 with the service objective replaced by
// the q-th percentile service time — ProPack "predicts different packing
// degrees that jointly minimize total, tail, and median service times"
// (Sec. 3); q=100 is the total, 95 the tail, 50 the median.
func (m Models) OptimalDegreeForQuantile(c int, q float64, w Weights) (int, error) {
	return m.direct().OptimalDegreeForQuantile(c, q, w)
}

// OptimalDegreeConstrained is Eq. 7 restricted to packing degrees whose
// instance count stays within maxInstances — planning against an
// account-level concurrency limit so the burst never throttles.
// maxInstances ≤ 0 means unconstrained. It returns an error if even the
// maximum degree spawns too many instances.
func (m Models) OptimalDegreeConstrained(c int, w Weights, maxInstances int) (int, error) {
	return m.direct().OptimalDegreeConstrained(c, w, maxInstances)
}

// Plan is ProPack's recommendation for running an application at a
// concurrency level.
type Plan struct {
	Concurrency int
	Degree      int
	Weights     Weights
	// Model predictions for the recommended degree.
	PredictedServiceSec float64
	PredictedExpenseUSD float64
	// Model predictions for the no-packing baseline, for reference.
	BaselineServiceSec float64
	BaselineExpenseUSD float64
}

// PlanFor computes the full recommendation at concurrency c.
func (m Models) PlanFor(c int, w Weights) (Plan, error) { return m.direct().PlanFor(c, w) }
