package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrQoSInfeasible is returned when no objective weighting keeps the
// modeled tail service time within the QoS bound — the bound is simply too
// tight for this application and concurrency.
var ErrQoSInfeasible = errors.New("core: no weighting satisfies the QoS bound")

// QoSOptions configures the Sec. 2.6 weight search.
type QoSOptions struct {
	// TailQuantile is the service-time percentile the bound applies to.
	// The paper uses the 95th percentile for Xapian. Zero means 95.
	TailQuantile float64
	// Step is the W_S grid resolution of the search. Zero means 0.05.
	Step float64
}

// maxQoSGridPoints caps the W_S grid a Step may ask for: the search runs one
// argmin per grid point, so an absurdly fine step is rejected up front
// instead of scanned.
const maxQoSGridPoints = 1_000_000

// normalize validates the QoS bound and options and applies the defaults.
// The guards are written !(lo < x ≤ hi) so that NaN fails them.
func (o QoSOptions) normalize(qosSec float64) (tailQ, step float64, err error) {
	if !(qosSec > 0) {
		return 0, 0, fmt.Errorf("core: non-positive QoS bound %g", qosSec)
	}
	tailQ = o.TailQuantile
	if tailQ == 0 {
		tailQ = 95
	}
	if !(tailQ > 0 && tailQ <= 100) {
		return 0, 0, fmt.Errorf("core: tail quantile %g outside (0,100]", tailQ)
	}
	step = o.Step
	if step == 0 {
		step = 0.05
	}
	if !(step > 0 && step <= 1) {
		return 0, 0, fmt.Errorf("core: weight step %g outside (0,1]", step)
	}
	if 1/step > maxQoSGridPoints {
		return 0, 0, fmt.Errorf("core: weight step %g needs more than %d grid points", step, maxQoSGridPoints)
	}
	return tailQ, step, nil
}

// TailServiceAt is Eq. 8: the modeled tail service time when the packing
// degree is chosen by the joint objective with the given weights.
func (m Models) TailServiceAt(c int, w Weights, tailQuantile float64) (float64, error) {
	return m.direct().TailServiceAt(c, w, tailQuantile)
}

// qosGridSize is the number of W_S grid points for a step: the integer grid
// fix for the old `ws += step` accumulation, which drifted off the exact
// 0.05 multiples and mutated the loop variable at the clamp. When 1/step is
// (numerically) an integer the grid is the round(1/step)+1 evenly spaced
// points from 0 to 1; otherwise the interior multiples of step plus a final
// point pinned to exactly 1, so the pure-service weighting is always tried
// before the bound is declared infeasible.
func qosGridSize(step float64) int {
	inv := 1 / step
	if r := math.Round(inv); math.Abs(inv-r) < 1e-9 {
		return int(r) + 1
	}
	return int(math.Floor(inv)) + 2
}

// qosWeightAt maps a grid index to its weights. The last index is exactly
// W_S = 1.
func qosWeightAt(j, n int, step float64) Weights {
	ws := float64(j) * step
	if j == n-1 || ws > 1 {
		ws = 1
	}
	return Weights{Service: ws, Expense: 1 - ws}
}

// qosSearchJoint is the Sec. 2.6 grid search over one shared GridTable: the
// smallest W_S on the grid whose Eq. 7 argmin over (size, degree) cells keeps
// the modeled tail within qosSec, scanned from W_S = 0 upward. Every weight
// step's argmin reads the same memoized service, expense and tail vectors.
func qosSearchJoint(t *GridTable, qosSec, tailQ, step float64) (Weights, error) {
	n := qosGridSize(step)
	for j := 0; j < n; j++ {
		w := qosWeightAt(j, n, step)
		si, deg := t.argminJoint(100, 1, w)
		if t.sizes[si].t.quantile(tailQ).vals[deg-1] <= qosSec {
			return w, nil
		}
	}
	return Weights{}, fmt.Errorf("%w: bound %.3gs at concurrency %d", ErrQoSInfeasible, qosSec, t.c)
}
