package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// Heterogeneous packing — the extension the paper sketches in Sec. 5
// ("technically, it is possible to extend ProPack … packing functions of
// different characteristics present new modeling challenges").
//
// The analytical extension reads Eq. 1 compositionally: fitting
// ln ET = c + α·Mfunc·P says every co-resident function of this application
// adds α·Mfunc to the instance's log execution time. For a mixed instance,
// each resident application j contributes its own fitted α_j·M_j per
// member, so a member of application i is predicted to finish at
//
//	ET_i = exp( c_i + α_i·M_i + Σ_{j resident, j≠i's slot} α_j·M_j )
//
// and the instance's wall time is the slowest member's. Everything needed
// is already measured: the per-application Eq. 1 fits and the shared
// platform scaling model.

// App is one application participating in a heterogeneous job.
type App struct {
	// Name labels the app in plans and tables.
	Name string
	// MemoryMB is the per-function footprint (bounds bin capacity).
	MemoryMB float64
	// Count is the app's requested concurrency C_k.
	Count int
	// ET is the app's fitted Eq. 1 model.
	ET ETModel
}

// Validate reports an error for malformed apps.
func (a App) Validate() error {
	switch {
	case a.MemoryMB <= 0:
		return fmt.Errorf("core: app %q: non-positive memory", a.Name)
	case a.Count < 1:
		return fmt.Errorf("core: app %q: count %d < 1", a.Name, a.Count)
	case a.ET.MfuncGB <= 0:
		return fmt.Errorf("core: app %q: missing ET model", a.Name)
	case !finite(a.MemoryMB, a.ET.MfuncGB, a.ET.Alpha, a.ET.Intercept):
		return fmt.Errorf("core: app %q: non-finite memory or ET model", a.Name)
	}
	return nil
}

// logPressure is the fitted per-member log-slowdown contribution of one
// function of the app: α·Mfunc (in GB, matching the fit).
func (a App) logPressure() float64 { return a.ET.Alpha * a.ET.MfuncGB }

// PredictMixedET predicts the wall time of one instance hosting counts[k]
// functions of apps[k]: the slowest member under the compositional Eq. 1
// reading above, with cross-application pressure discounted by
// crossDiscount (diverse threads interleave better; 0 means no benefit —
// the conservative default when no pair probes were run). Instances with
// no members predict 0.
func PredictMixedET(apps []App, counts []int, crossDiscount float64) float64 {
	var et float64
	for k, n := range counts {
		if n == 0 {
			continue
		}
		// ln ET_k = intercept_k + own α_k·M_k + same-app co-residents at
		// full pressure + other apps' residents discounted.
		lnET := apps[k].ET.Intercept + apps[k].logPressure() +
			float64(n-1)*apps[k].logPressure()
		for j, m := range counts {
			if j == k {
				continue
			}
			lnET += float64(m) * apps[j].logPressure() * (1 - crossDiscount)
		}
		if v := math.Exp(lnET); v > et {
			et = v
		}
	}
	return et
}

// EstimateCrossDiscount inverts a mixed pair probe: observedET is the
// measured wall time of one instance hosting k functions of a and k of b.
// Comparing it against the undiscounted compositional prediction isolates
// the cross-application discount. The result is clamped to [0, 1].
func EstimateCrossDiscount(a, b App, k int, observedET float64) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: pair probe needs k ≥ 1, have %d", k)
	}
	if observedET <= 0 {
		return 0, fmt.Errorf("core: non-positive probe observation %g", observedET)
	}
	apps := []App{a, b}
	counts := []int{k, k}
	// The dominant member at zero discount stays dominant for any discount
	// (discounts shrink everyone's cross term by the other app's pressure).
	pred := PredictMixedET(apps, counts, 0)
	if pred <= 0 {
		return 0, fmt.Errorf("core: degenerate pair prediction")
	}
	// Identify the dominant member (it determines the observed wall time)
	// and read the discount off its cross-pressure term.
	other := b
	if b.ET.Intercept+float64(k)*b.logPressure() >
		a.ET.Intercept+float64(k)*a.logPressure() {
		other = a
	}
	cross := float64(k) * other.logPressure()
	if cross <= 0 {
		return 0, fmt.Errorf("core: zero cross pressure, discount unidentifiable")
	}
	disc := (math.Log(pred) - math.Log(observedET)) / cross
	if disc < 0 {
		disc = 0
	}
	if disc > 1 {
		disc = 1
	}
	return disc, nil
}

// MixedPlan is the heterogeneous packing recommendation: BinCounts[b][k] is
// how many functions of apps[k] instance b hosts.
type MixedPlan struct {
	Apps      []App
	BinCounts [][]int
	// Strategy records which composition won: "mixed" (cross-application
	// bins) or "segregated" (per-application bins at per-app degrees).
	Strategy string
	// Model predictions for the plan.
	PredictedServiceSec float64
	PredictedExpenseUSD float64
}

// Instances is the number of function instances the plan spawns.
func (p MixedPlan) Instances() int { return len(p.BinCounts) }

// MixedPlanOptions configures PlanMixed.
type MixedPlanOptions struct {
	// InstanceMemoryMB is the platform's instance memory (bins must fit).
	InstanceMemoryMB float64
	// MaxExecSec is the platform's execution-time limit.
	MaxExecSec float64
	// Weights are the Eq. 7 objective weights.
	Weights Weights
	// Scaling is the platform's fitted Eq. 2 model.
	Scaling ScalingModel
	// RatePerInstanceSec is R (dollars per instance-second).
	RatePerInstanceSec float64
	// CrossDiscount is the estimated cross-application contention discount
	// (from EstimateCrossDiscount pair probes); 0 is the conservative
	// default.
	CrossDiscount float64
}

// heteroCandidate is one packing composition under evaluation. Bins are not
// materialized during the search — only the winner's are, from the stored
// parameters (instance count for "mixed", degree combination for
// "segregated"), so the candidate sweep allocates nothing per composition.
type heteroCandidate struct {
	strategy   string
	bins       int   // "mixed": the instance count B
	comboRank  int   // "segregated": lexicographic rank of the degree combo
	degrees    []int // "segregated" fallback: explicit degrees (rank unused)
	serviceSec float64
	expenseUSD float64
}

// materialize builds the candidate's bins.
func (c heteroCandidate) materialize(apps []App, maxDegs []int) [][]int {
	if c.strategy == "mixed" {
		return dealCounts(apps, c.bins)
	}
	degrees := c.degrees
	if degrees == nil {
		degrees = decodeCombo(c.comboRank, maxDegs)
	}
	return segregatedBins(apps, degrees)
}

// decodeCombo inverts the lexicographic rank of a per-app degree
// combination (degrees are 1-based, app 0 most significant).
func decodeCombo(rank int, maxDegs []int) []int {
	degrees := make([]int, len(maxDegs))
	for k := len(maxDegs) - 1; k >= 0; k-- {
		degrees[k] = rank%maxDegs[k] + 1
		rank /= maxDegs[k]
	}
	return degrees
}

// PlanMixed chooses the packing composition for a heterogeneous job from
// two candidate families and picks the Eq. 7 weighted-regret winner:
//
//   - "mixed": each app's functions dealt round-robin across B bins for
//     every feasible B (balanced cross-application bins — compute-bound
//     members get lighter neighbours, which shrinks the slowest bin);
//   - "segregated": per-application bins at every combination of per-app
//     degrees (the stock-ProPack shape — cheap when the apps' solo
//     durations differ widely, because short functions then never ride
//     inside long instances and pay for their wall time).
//
// Both families share the platform scaling model through the joint
// instance count, which is what couples the applications in the first
// place.
func PlanMixed(apps []App, opts MixedPlanOptions) (MixedPlan, error) {
	if len(apps) == 0 {
		return MixedPlan{}, fmt.Errorf("core: no apps to plan")
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return MixedPlan{}, err
		}
	}
	if err := opts.Weights.Validate(); err != nil {
		return MixedPlan{}, err
	}
	// Written so that NaN fails every clause; +Inf is a MaxExecSec (no
	// limit), not an InstanceMemoryMB.
	if !(opts.InstanceMemoryMB > 0 && stats.FiniteNonNeg(opts.InstanceMemoryMB)) || !(opts.MaxExecSec > 0) ||
		!stats.FiniteNonNeg(opts.RatePerInstanceSec) || !(opts.CrossDiscount >= 0 && opts.CrossDiscount <= 1) ||
		!finite(opts.Scaling.B1, opts.Scaling.B2, opts.Scaling.B3) {
		return MixedPlan{}, fmt.Errorf("core: invalid mixed-plan options %+v", opts)
	}

	maxDegs := feasibleDegrees(apps, opts)
	cands := mixedCandidates(apps, opts)
	cands = append(cands, segregatedCandidates(apps, maxDegs, opts)...)
	if len(cands) == 0 {
		return MixedPlan{}, fmt.Errorf("core: no feasible heterogeneous packing (memory or latency bound)")
	}

	bestS, bestE := math.Inf(1), math.Inf(1)
	for _, c := range cands {
		bestS = math.Min(bestS, c.serviceSec)
		bestE = math.Min(bestE, c.expenseUSD)
	}
	// The first candidate in enumeration order stands when no regret compares
	// (all NaN, e.g. a zero rate makes every expense regret 0/0), as in
	// GridTable.firstEligible.
	best, bestVal := cands[0], math.Inf(1)
	for _, c := range cands {
		v := opts.Weights.Service*(c.serviceSec-bestS)/bestS +
			opts.Weights.Expense*(c.expenseUSD-bestE)/bestE
		if v < bestVal {
			best, bestVal = c, v
		}
	}
	return MixedPlan{
		Apps:                apps,
		BinCounts:           best.materialize(apps, maxDegs),
		Strategy:            best.strategy,
		PredictedServiceSec: best.serviceSec,
		PredictedExpenseUSD: best.expenseUSD,
	}, nil
}

// feasibleDegrees is the per-app feasible packing-degree ceiling under the
// instance memory and execution-time limits, or nil if some app cannot run
// at any degree.
func feasibleDegrees(apps []App, opts MixedPlanOptions) []int {
	maxDegs := make([]int, len(apps))
	for k, a := range apps {
		md := int(opts.InstanceMemoryMB / a.MemoryMB)
		for md > 1 && a.ET.At(md) > opts.MaxExecSec {
			md--
		}
		if md < 1 {
			return nil
		}
		maxDegs[k] = md
	}
	return maxDegs
}

// binEval is the evaluation of one bin profile inside one instance count:
// the memory footprint and predicted ET of a bin hosting a given count
// vector.
type binEval struct {
	mem float64
	et  float64
}

// mixedCandidates evaluates the proportional cross-application composition
// at every feasible instance count.
//
// Hot-path structure: dealCounts gives every bin of an instance count B the
// per-app count base_k = C_k/B or base_k+1, so a bin's profile is fully
// described by the set of apps granting it the "+1" remainder — and app k
// grants it to the cyclic bin range [offset_k, offset_k+extra_k), so the set
// can only change at the cut points {0, offset_k, (offset_k+extra_k) mod B,
// B}: a composition is at most 2K+1 runs of identical bins, whatever B is.
// Instead of materializing the B×K count matrix and recomputing
// PredictMixedET per bin, the sweep walks those runs: one count vector
// (replicating dealCounts' remainder rotation at the run's first bin), one
// evaluation and one feasibility check per run. Bin ETs still come from
// PredictMixedET on that count vector, and the sum adds the run's ET once
// per bin, in bin order (the repeated add, not a multiply), so every
// candidate's service and expense are bit-identical to the naive per-bin
// recomputation.
// Two bound-based prunes skip infeasible instance counts before any ET
// evaluation: a memory floor (even the no-remainder bin is too big) and —
// when every app's fitted pressure is non-negative, so ET is monotone in
// the counts — an execution-time floor.
func mixedCandidates(apps []App, opts MixedPlanOptions) []heteroCandidate {
	totalFuncs := 0
	var totalMem float64
	monotone := true
	for _, a := range apps {
		totalFuncs += a.Count
		totalMem += float64(a.Count) * a.MemoryMB
		if a.logPressure() < 0 {
			monotone = false
		}
	}
	minBins := int(math.Ceil(totalMem / opts.InstanceMemoryMB))
	if minBins < 1 {
		minBins = 1
	}
	var cands []heteroCandidate
	counts := make([]int, len(apps))  // scratch count vector for one run
	base := make([]int, len(apps))    // C_k / B for the current B
	extra := make([]int, len(apps))   // C_k % B
	offsets := make([]int, len(apps)) // dealCounts' rotating remainder start
	cuts := make([]int, 0, 2*len(apps)+2)
	for b := minBins; b <= totalFuncs; b++ {
		offset := 0
		cuts = append(cuts[:0], 0, b)
		for k, a := range apps {
			base[k] = a.Count / b
			extra[k] = a.Count % b
			offsets[k] = offset
			offset = (offset + extra[k]) % b
			cuts = append(cuts, offsets[k], offset)
		}
		// Prune before any ET work: every bin holds at least the base
		// counts, so the base profile's memory (and, for monotone pressures,
		// its ET) floors every bin in this composition.
		baseEval := evalCounts(apps, opts, base)
		if baseEval.mem > opts.InstanceMemoryMB {
			continue
		}
		if monotone && baseEval.et > opts.MaxExecSec {
			continue
		}
		slices.Sort(cuts)
		feasible := true
		var maxET, sumET float64
		for c := 1; c < len(cuts); c++ {
			lo, hi := cuts[c-1], cuts[c]
			if lo == hi {
				continue
			}
			ev, plus := baseEval, false
			for k := range apps {
				counts[k] = base[k]
				if (lo-offsets[k]+b)%b < extra[k] {
					counts[k]++
					plus = true
				}
			}
			if plus {
				ev = evalCounts(apps, opts, counts)
			}
			if ev.mem > opts.InstanceMemoryMB || ev.et > opts.MaxExecSec {
				feasible = false
				break
			}
			for i := lo; i < hi; i++ {
				sumET += ev.et
			}
			if ev.et > maxET {
				maxET = ev.et
			}
		}
		if !feasible {
			continue
		}
		cands = append(cands, heteroCandidate{
			strategy:   "mixed",
			bins:       b,
			serviceSec: maxET + opts.Scaling.At(float64(b)),
			expenseUSD: sumET * opts.RatePerInstanceSec,
		})
	}
	return cands
}

// evalCounts evaluates a bin hosting counts[k] functions of apps[k]: its
// memory footprint (summed in app order, exactly as the naive per-bin loop
// sums it) and predicted ET.
func evalCounts(apps []App, opts MixedPlanOptions, counts []int) binEval {
	var mem float64
	for k, n := range counts {
		mem += float64(n) * apps[k].MemoryMB
	}
	return binEval{mem: mem, et: PredictMixedET(apps, counts, opts.CrossDiscount)}
}

// segregatedCandidates evaluates per-application bins over every
// combination of per-app packing degrees (bounded by memory and the
// execution limit, precomputed by feasibleDegrees). The joint instance
// count couples the apps through the scaling model.
//
// Hot-path structure: instead of re-deriving every app's ET and bin count
// at each of the Π maxDegs leaves, each app's per-degree values are
// tabulated once and the walk threads running (bins, sumET, maxET) prefix
// accumulators — a leaf only appends a candidate. The accumulators apply
// the same operations in the same app order as a per-leaf loop would, so
// every candidate's service and expense are bit-identical to the naive
// sweep. The winning combination is recovered from its lexicographic rank
// (app 0 most significant), so the walk allocates nothing per leaf.
func segregatedCandidates(apps []App, maxDegs []int, opts MixedPlanOptions) []heteroCandidate {
	if maxDegs == nil {
		return nil // some app cannot run at all
	}
	// Keep the combinatorial walk bounded: with more than 3 apps, fix each
	// app's degree to its own single-app optimum instead of sweeping.
	combos := 1
	for _, md := range maxDegs {
		combos *= md
		if combos > 200000 {
			break
		}
	}
	if combos > 200000 {
		chosen := make([]int, len(apps))
		for k, a := range apps {
			chosen[k] = bestSoloDegree(a, maxDegs[k], opts)
		}
		bins := 0
		var maxET, sumET float64
		for i, a := range apps {
			d := chosen[i]
			n := (a.Count + d - 1) / d
			bins += n
			et := a.ET.At(d)
			sumET += float64(n) * et
			if et > maxET {
				maxET = et
			}
		}
		return []heteroCandidate{{
			strategy:   "segregated",
			degrees:    chosen,
			serviceSec: maxET + opts.Scaling.At(float64(bins)),
			expenseUSD: sumET * opts.RatePerInstanceSec,
		}}
	}

	// Per-app, per-degree tables: ET and instance count at each degree. The
	// last bin of an app may be partial; its ET is approximated with the
	// full-degree value (pessimistic by ≤ one bin), matching Eq. 1's use.
	etTab := make([][]float64, len(apps))
	nTab := make([][]int, len(apps))
	for k, a := range apps {
		etTab[k] = make([]float64, maxDegs[k])
		nTab[k] = make([]int, maxDegs[k])
		for d := 1; d <= maxDegs[k]; d++ {
			etTab[k][d-1] = a.ET.At(d)
			nTab[k][d-1] = (a.Count + d - 1) / d
		}
	}
	cands := make([]heteroCandidate, 0, combos)
	var walk func(k, rank, bins int, sumET, maxET float64)
	walk = func(k, rank, bins int, sumET, maxET float64) {
		if k == len(apps) {
			cands = append(cands, heteroCandidate{
				strategy:   "segregated",
				comboRank:  rank,
				serviceSec: maxET + opts.Scaling.At(float64(bins)),
				expenseUSD: sumET * opts.RatePerInstanceSec,
			})
			return
		}
		for d := 1; d <= maxDegs[k]; d++ {
			et := etTab[k][d-1]
			n := nTab[k][d-1]
			m := maxET
			if et > m {
				m = et
			}
			walk(k+1, rank*maxDegs[k]+(d-1), bins+n, sumET+float64(n)*et, m)
		}
	}
	walk(0, 0, 0, 0, 0)
	return cands
}

// bestSoloDegree picks an app's degree by its own Eq. 7 objective, ignoring
// the other apps (used only to bound the combinatorial walk).
func bestSoloDegree(a App, maxDeg int, opts MixedPlanOptions) int {
	m := Models{ET: a.ET, Scaling: opts.Scaling, RatePerInstanceSec: opts.RatePerInstanceSec, MaxDegree: maxDeg}
	deg, err := m.OptimalDegree(a.Count, opts.Weights)
	if err != nil {
		return 1
	}
	return deg
}

// segregatedBins materializes per-application bins at the given degrees.
func segregatedBins(apps []App, degrees []int) [][]int {
	var bins [][]int
	for k, a := range apps {
		remaining := a.Count
		for remaining > 0 {
			n := degrees[k]
			if remaining < n {
				n = remaining
			}
			counts := make([]int, len(apps))
			counts[k] = n
			bins = append(bins, counts)
			remaining -= n
		}
	}
	return bins
}

// dealCounts distributes each app's Count functions round-robin across b
// bins: bin i gets ceil or floor of Count/b, never differing by more than
// one within an app. Each app's "+1" remainder bins start where the
// previous app's ended, so remainders spread instead of piling onto the
// first bins (which would leave later bins empty).
func dealCounts(apps []App, b int) [][]int {
	counts := make([][]int, b)
	for i := range counts {
		counts[i] = make([]int, len(apps))
	}
	offset := 0
	for k, a := range apps {
		base := a.Count / b
		extra := a.Count % b
		for i := 0; i < b; i++ {
			counts[i][k] = base
			if (i-offset+b)%b < extra {
				counts[i][k]++
			}
		}
		offset = (offset + extra) % b
	}
	return counts
}
