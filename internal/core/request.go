package core

import (
	"fmt"
	"slices"

	"repro/internal/stats"
)

// Request is the planning question all three front doors ask: the library's
// AdviseRequest, `propack advise` and the /v1 planning routes. Validate is
// its one judgment and Planner.Answer its one dispatch, so a door only reads
// its text into a Request and renders the answer.
type Request struct {
	C       int     // concurrency: the number of logical functions
	Weights Weights // Eq. 7's, checked even where a bound replaces them
	QoSSec  float64 // the Sec. 2.6 p95 bound in seconds; 0 means none
	// Failure folds crash-and-retry expectations into a degree-only plan; it
	// combines with neither a bound nor a grid.
	Failure FailureModel
	SizesMB []float64 // a memory grid to plan (degree, memory) over; empty plans the degree alone
	// Quantile is the service-time percentile Eq. 7 weighs, in (0, 100]: 95
	// is the tail, 50 the median, and 0 the total (q = 100). ProPack
	// "predicts different packing degrees that jointly minimize total, tail,
	// and median service times" (Sec. 3).
	Quantile float64
	// MaxInstances caps the instance count ⌈C/P⌉ (an account or burst limit):
	// only degrees that stay within it are planned over. 0 means no cap.
	MaxInstances int
}

// Validate reports the first rule the request breaks: the weights, then the
// concurrency (the order of every planning entry point), then the bound, the
// quantile, the instance cap, the failure model, the combinations no planner
// answers (a failure model beside a bound or a grid, then a quantile or a cap
// beside a bound), and the grid.
func (r Request) Validate() error {
	if err := checkInputs(nil, &r.Weights, r.C); err != nil {
		return err
	}
	if !stats.FiniteNonNeg(r.QoSSec) {
		return fmt.Errorf("core: QoS bound %g is not a finite p95 bound in seconds ≥ 0 (0 for none)", r.QoSSec)
	}
	if r.Quantile != 0 && !(r.Quantile > 0 && r.Quantile <= 100) {
		return fmt.Errorf("core: quantile %g outside (0,100] (0 for the total)", r.Quantile)
	}
	if r.MaxInstances < 0 {
		return fmt.Errorf("core: instance cap %d < 0 (0 for none)", r.MaxInstances)
	}
	if err := r.Failure.Validate(); err != nil {
		return err
	}
	if r.Failure.Enabled() && (r.QoSSec > 0 || len(r.SizesMB) > 0) {
		return fmt.Errorf("core: a failure model combines with neither a QoS bound nor a memory grid: only the weighted degree-only plan is reliability-aware")
	}
	if r.QoSSec > 0 && (r.Quantile != 0 || r.MaxInstances > 0) {
		return fmt.Errorf("core: a QoS bound combines with neither a quantile nor an instance cap: the Sec. 2.6 search bounds the p95 over every degree")
	}
	if len(r.SizesMB) > 0 {
		return CheckSizeGrid(r.SizesMB)
	}
	return nil
}

// Answer is the one dispatch of a Request: the Eq. 7 plan at the request's
// weights, service quantile and instance cap or, with a bound, the Sec. 2.6
// plan (Plan.Weights holds the weights the search chose); over the planner's
// memory grid when the request names it, else over the degree alone (MemMB is
// then 0). The request's failure model must be the one the planner folds: a
// planner never drops one. A plan's predictions are the total service time
// and the expense whatever quantile chose it.
func (pl *Planner) Answer(r Request) (JointPlan, error) {
	if err := r.Validate(); err != nil {
		return JointPlan{}, err
	}
	gc := pl.cache
	if len(r.SizesMB) > 0 {
		gc = pl.grid
		if gc != nil && !slices.EqualFunc(gc.g.Sizes, r.SizesMB, func(s SizeModels, mb float64) bool { return s.MemMB == mb }) {
			return JointPlan{}, fmt.Errorf("core: the request's memory grid %v MB is not the planner's", r.SizesMB)
		}
	} else if gc != nil && r.Failure != gc.failure && (r.Failure.Enabled() || gc.failure.Enabled()) {
		return JointPlan{}, fmt.Errorf("core: the request's failure model %+v is not the planner's %+v", r.Failure, gc.failure)
	}
	if r.QoSSec > 0 {
		jp, _, err := gc.qosPlan(r.C, r.QoSSec)
		return jp, err
	}
	return gc.answer(r)
}

// Answer is the uncached Planner.Answer, over the request's failure model
// (which Planner.Answer validates): with one, the row's service and expense
// vectors are their expectations under crash-and-retry. Built in place, the
// planner stays on the stack, as PlanFor's does.
func (m Models) Answer(r Request) (JointPlan, error) {
	pl := m.direct()
	pl.cache.failure = r.Failure
	return pl.Answer(r)
}

// Answer is the uncached Planner.Answer over the grid.
func (g GridModels) Answer(r Request) (JointPlan, error) { return g.direct().Answer(r) }
