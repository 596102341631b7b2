package main

import (
	"fmt"
	"math"

	propack "repro"
	"repro/internal/baseline"
)

// qualityConcurrency and qualitySeed fix the operating point of the paper's
// own quality claim; the benchmark seed has no part in it, so both numbers
// repeat exactly from run to run.
const (
	qualityConcurrency = 2000
	qualitySeed        = 1
)

// planQuality measures, over the given pairs, how good ProPack's plan is
// against the simulator it plans for. For each pair it simulates every
// packing degree, forms the Eq. 5–7 balanced fractional-regret objective on
// the simulated service time and expense, and compares:
//
//   - regretPct: the mean gap, in percentage points of that objective,
//     between ProPack's degree and the simulated argmin;
//   - modelErrPct: the mean |modelled − simulated| / simulated total service
//     time at ProPack's degree.
func planQuality(pairs []pair) (regretPct, modelErrPct float64, err error) {
	for _, p := range pairs {
		rec, err := propack.Advise(p.cfg, p.demand, qualityConcurrency, propack.Balanced())
		if err != nil {
			return 0, 0, fmt.Errorf("quality: advise %s: %w", p.key(), err)
		}
		all, err := baseline.SweepWithOptions(p.cfg, p.demand, qualityConcurrency, qualitySeed,
			rec.Models.MaxDegree, baseline.SweepOptions{})
		if err != nil {
			return 0, 0, fmt.Errorf("quality: sweep %s: %w", p.key(), err)
		}
		if rec.Plan.Degree > len(all) {
			return 0, 0, fmt.Errorf("quality: %s plans degree %d but only %d degrees are feasible", p.key(), rec.Plan.Degree, len(all))
		}
		bestS, bestE := math.Inf(1), math.Inf(1)
		for _, m := range all {
			bestS, bestE = math.Min(bestS, m.TotalService), math.Min(bestE, m.ExpenseUSD)
		}
		objective := func(deg int) float64 {
			m := all[deg-1]
			return 0.5*(m.TotalService-bestS)/bestS + 0.5*(m.ExpenseUSD-bestE)/bestE
		}
		best := math.Inf(1)
		for deg := 1; deg <= len(all); deg++ {
			best = math.Min(best, objective(deg))
		}
		regretPct += 100 * (objective(rec.Plan.Degree) - best)
		simulated := all[rec.Plan.Degree-1].TotalService
		modelErrPct += 100 * math.Abs(rec.Plan.PredictedServiceSec-simulated) / simulated
	}
	n := float64(len(pairs))
	return regretPct / n, modelErrPct / n, nil
}
