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

// maxQoSGridPoints caps the W_S grid a Step may ask for: the search
// memoizes one argmin per grid point, so an absurdly fine step is rejected
// up front instead of sizing a slice from it.
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

// qosSearchJoint is the Sec. 2.6 grid search over one shared GridTable: find
// the smallest feasible W_S on the grid, each weight step's argmin taken
// over (size, degree) cells. All weight steps reuse the same memoized
// service/expense/tail vectors, and the search exits early via monotone
// pruning:
//
//   - Infeasibility floor: every grid point's tail is the tail at *some*
//     cell, so if no cell at all meets the bound the search is infeasible
//     without scanning the grid. Exact.
//   - Prefix certificate: by the scalarization exchange argument — which
//     holds for any finite candidate set — the total-service regret dS at
//     the Eq. 7 argmin is non-increasing in W_S, so every argmin for grid
//     indices ≤ j lies in {cells with dS ≥ dS(argmin_j)}. If no cell in
//     that set meets the bound, the whole prefix is infeasible and a
//     binary-searched boundary is the answer. The certificate threshold
//     carries a small conservative slack because the theorem is exact for
//     real arithmetic while the argmin is computed in floats; whenever
//     certification fails, the search falls back to the plain left-to-right
//     grid scan, which is identical to the naive implementation by
//     construction.
func qosSearchJoint(t *GridTable, qosSec, tailQ, step float64) (Weights, error) {
	infeasible := func() (Weights, error) {
		return Weights{}, fmt.Errorf("%w: bound %.3gs at concurrency %d", ErrQoSInfeasible, qosSec, t.c)
	}
	// Infeasibility floor: no cell meets the bound, so no weighting can.
	if t.bestServiceAt(tailQ, 1) > qosSec {
		return infeasible()
	}

	n := qosGridSize(step)
	sis := make([]int, n)
	degs := make([]int, n) // 0 = unevaluated (degrees are ≥ 1)
	pick := func(j int) (int, int) {
		if degs[j] == 0 {
			sis[j], degs[j] = t.argminJoint(100, 1, qosWeightAt(j, n, step))
		}
		return sis[j], degs[j]
	}
	feasible := func(j int) bool {
		si, deg := pick(j)
		return t.sizes[si].t.quantile(tailQ).vals[deg-1] <= qosSec
	}

	if feasible(0) {
		return qosWeightAt(0, n, step), nil
	}

	// prefixInfeasible certifies that every grid index in [0, j] fails the
	// bound: all their argmins have total-service regret ≥ dS(argmin_j), and
	// no such cell's tail meets the bound.
	bestS := t.bestServiceAt(100, 1)
	dS := func(si, i int) float64 { return (t.sizes[si].t.service[i] - bestS) / bestS }
	prefixInfeasible := func(j int) bool {
		sj, dj := pick(j)
		thr := dS(sj, dj-1)
		thr -= 1e-12 * (1 + math.Abs(thr)) // conservative float slack
		for si := range t.sizes {
			tail := t.sizes[si].t.quantile(tailQ).vals
			for i := range tail {
				if dS(si, i) >= thr && tail[i] <= qosSec {
					return false
				}
			}
		}
		return true
	}
	// gridScan is the guaranteed-identical fallback: the naive left-to-right
	// search over the same memoized evaluations.
	gridScan := func() (Weights, error) {
		for j := 0; j < n; j++ {
			if feasible(j) {
				return qosWeightAt(j, n, step), nil
			}
		}
		return infeasible()
	}

	if !feasible(n - 1) {
		// Even W_S=1 misses the bound. Certify the whole grid infeasible, or
		// fall back to the scan (the bound may be met mid-grid only if the
		// tail at the argmin is non-monotone in W_S).
		if prefixInfeasible(n - 1) {
			return infeasible()
		}
		return gridScan()
	}

	// Binary search for the feasibility boundary: lo infeasible, hi feasible.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	if prefixInfeasible(hi - 1) {
		return qosWeightAt(hi, n, step), nil
	}
	return gridScan()
}

// QoSWeights is Eq. 9: find the service-time weight W_S so that the modeled
// tail service time stays within qosSec while retaining as much expense
// optimization as possible — i.e. the *smallest* feasible W_S. (Eq. 9's
// literal argmin over TS would always return W_S = 1; the paper's own use —
// W_S = 0.65 for Xapian rather than 1 — shows the intended reading is the
// minimal weight that meets the bound, which is what we implement.)
func (m Models) QoSWeights(c int, qosSec float64, opts QoSOptions) (Weights, error) {
	return m.direct().QoSWeights(c, qosSec, opts)
}

// QoSPlan recommends a packing degree that jointly optimizes service time
// and expense while keeping the modeled tail latency within qosSec. The
// weight search and the final plan share one degree table.
func (m Models) QoSPlan(c int, qosSec float64, opts QoSOptions) (Plan, Weights, error) {
	return m.direct().QoSPlan(c, qosSec, opts)
}
