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

// regret is Eq. 7: the weighted sum of the Eq. 5 and Eq. 6 regrets. A zero
// weight drops its term, so an objective the caller ignores cannot turn the
// sum into NaN (0·NaN, 0·Inf): ServiceOnly is Eq. 3 even on a stack whose
// expense baseline is 0. Where both regrets are finite, 0·d = ±0 and
// x + ±0 = x, so dropping the term changes nothing.
func (w Weights) regret(dS, dE float64) float64 {
	switch {
	case w.Expense == 0:
		return w.Service * dS
	case w.Service == 0:
		return w.Expense * dE
	}
	return w.Service*dS + w.Expense*dE
}

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

// PlanFor is Eq. 7's recommendation at concurrency c: the packing degree
// minimizing the weighted sum of fractional regrets from the two
// single-objective optima (Eqs. 5–6), with its predictions.
func (m Models) PlanFor(c int, w Weights) (Plan, error) { return m.direct().PlanFor(c, w) }
