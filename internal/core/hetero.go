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

// decodeCombo inverts the rank of a segregated leaf: the walk visits the
// per-app degree lists in lexicographic order, app 0 most significant.
func decodeCombo(rank int, degrees [][]int) []int {
	combo := make([]int, len(degrees))
	for k := len(degrees) - 1; k >= 0; k-- {
		combo[k] = degrees[k][rank%len(degrees[k])]
		rank /= len(degrees[k])
	}
	return combo
}

// maxMixedFunctions bounds Σ count in one mixed plan: PlanMixed's cost grows
// as entries × Σ count² and it watches no context, so an unbounded job holds
// its caller — a /v1/mixed admission slot, a `propack hetero` — long past any
// deadline. 20 000 is the top of the concurrency range the other planners
// are exercised over.
const maxMixedFunctions = 20000

// CheckMixedCounts is PlanMixed's judgment of a job's per-app counts: each
// at least 1, and at most maxMixedFunctions in all, summed so that no count
// can wrap the total. PlanMixed applies it first; a door that probes or
// allocates per function before it plans (`propack hetero`, /v1/mixed)
// calls it before that, so every door refuses the same job with one error.
func CheckMixedCounts(counts ...int) error {
	total := 0
	for _, c := range counts {
		if c < 1 {
			return fmt.Errorf("core: app count %d < 1", c)
		}
		if c > maxMixedFunctions-total {
			return fmt.Errorf("core: app counts sum past %d, the most functions the mixed planner plans in one job", maxMixedFunctions)
		}
		total += c
	}
	return nil
}

// PlanMixed chooses the packing composition for a heterogeneous job from
// two candidate families and picks the Eq. 7 weighted-regret winner:
//
//   - "mixed": each app's functions dealt round-robin across B bins for
//     every feasible B (balanced cross-application bins — compute-bound
//     members get lighter neighbours, which shrinks the slowest bin);
//   - "segregated": per-application bins at every combination of per-app
//     degrees, or at each app's own optimum past maxSegregatedCombos (the
//     stock-ProPack shape — cheap when the apps' solo durations differ
//     widely: short functions never ride inside long instances).
//
// Both families share the platform scaling model through the joint
// instance count, which is what couples the applications in the first
// place.
func PlanMixed(apps []App, opts MixedPlanOptions) (MixedPlan, error) {
	if len(apps) == 0 {
		return MixedPlan{}, fmt.Errorf("core: no apps to plan")
	}
	counts := make([]int, len(apps))
	for k, a := range apps {
		counts[k] = a.Count
	}
	if err := CheckMixedCounts(counts...); err != nil {
		return MixedPlan{}, err
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

	svc, exp, bins := mixedCandidates(apps, opts)
	degrees := segregatedDegrees(apps, opts)
	svc, exp = segregatedCandidates(apps, degrees, opts, svc, exp)
	if len(svc) == 0 {
		return MixedPlan{}, fmt.Errorf("core: no feasible heterogeneous packing (memory or latency bound)")
	}

	// The candidates are the cells of one row, in enumeration order, ranked
	// by the planner's one Eq. 7 scan with its baselines, ties and zero
	// baseline. A NaN cell (an overflowed ET billed at a zero rate) sets no
	// baseline unless it is the first, and never wins. The winning cell names
	// its plan: an instance count of the mixed family, else the rank of a
	// segregated leaf.
	_, cell := columnRow(0, svc, exp, nil).argminJoint(100, 1, opts.Weights)
	i := cell - 1
	plan := MixedPlan{Apps: apps, Strategy: "mixed", PredictedServiceSec: svc[i], PredictedExpenseUSD: exp[i]}
	if i < len(bins) {
		plan.BinCounts = dealCounts(apps, bins[i])
	} else {
		plan.Strategy = "segregated"
		plan.BinCounts = SegregatedBins(counts, decodeCombo(i-len(bins), degrees))
	}
	return plan, nil
}

// maxSegregatedCombos bounds the segregated walk's leaves.
const maxSegregatedCombos = 200000

// segregatedDegrees is the segregated family's per-app degree lists: every
// degree up to the app's ceiling, or — when the lists would combine into
// more than maxSegregatedCombos leaves — only the app's own single-app
// optimum (SoloDegrees). The bound counts combinations, not apps: three of
// the built-in workloads on one instance never reach it, four usually do.
// The lists are nil if some app fits no degree.
func segregatedDegrees(apps []App, opts MixedPlanOptions) [][]int {
	degrees := make([][]int, len(apps))
	combos := 1
	for k, a := range apps {
		md := degreeCeiling(a, opts)
		if md < 1 {
			return nil
		}
		combos = min(combos*md, maxSegregatedCombos+1)
		for d := 1; d <= md; d++ {
			degrees[k] = append(degrees[k], d)
		}
	}
	if combos > maxSegregatedCombos {
		// Every app fits a degree and PlanMixed validated the models that
		// SoloDegrees plans with, so it answers for every app.
		for k, d := range SoloDegrees(apps, opts) {
			degrees[k] = []int{d}
		}
	}
	return degrees
}

// degreeCeiling is the app's highest packing degree within the instance
// memory and the execution-time limit (degree 1 stands whatever its ET), or
// 0 if one function outgrows the instance. The memory ratio is clamped at
// maxMixedFunctions, which no bin can exceed, before it converts: a tiny
// footprint must not ask for 10¹⁰ degrees, nor a ratio past 2⁶³ wrap. The
// quotient can round up onto an integer whose bin does not fit, so the
// degree then steps down until the product a bin is judged by fits.
func degreeCeiling(a App, opts MixedPlanOptions) int {
	fit := opts.InstanceMemoryMB / a.MemoryMB
	if fit > maxMixedFunctions {
		fit = maxMixedFunctions
	}
	md := int(fit)
	for md > 0 && float64(md)*a.MemoryMB > opts.InstanceMemoryMB {
		md--
	}
	for md > 1 && a.ET.At(md) > opts.MaxExecSec {
		md--
	}
	return md
}

// SoloDegrees is each app's packing degree by its own Eq. 7 objective,
// ignoring the other apps, over the degrees up to its segregated ceiling:
// the per-app ProPack deployment, and the segregated family's lists past
// maxSegregatedCombos. It is nil if some app fits no degree or its models
// fail Models.Validate.
func SoloDegrees(apps []App, opts MixedPlanOptions) []int {
	degrees := make([]int, len(apps))
	for k, a := range apps {
		md := degreeCeiling(a, opts)
		if md < 1 {
			return nil
		}
		plan, err := Models{ET: a.ET, Scaling: opts.Scaling, RatePerInstanceSec: opts.RatePerInstanceSec, MaxDegree: md}.PlanFor(a.Count, opts.Weights)
		if err != nil {
			return nil
		}
		degrees[k] = plan.Degree
	}
	return degrees
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
// Instead of building the B×K count matrix and recomputing
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
// the counts — an execution-time floor. Each feasible instance count
// appends its service and expense to the columns and itself to bins.
func mixedCandidates(apps []App, opts MixedPlanOptions) (svc, exp []float64, bins []int) {
	totalFuncs := 0 // at most maxMixedFunctions: PlanMixed checked the counts
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
		baseMem, baseET := evalCounts(apps, opts, base)
		if baseMem > opts.InstanceMemoryMB || monotone && baseET > opts.MaxExecSec {
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
			mem, et, plus := baseMem, baseET, false
			for k := range apps {
				counts[k] = base[k]
				if (lo-offsets[k]+b)%b < extra[k] {
					counts[k]++
					plus = true
				}
			}
			if plus {
				mem, et = evalCounts(apps, opts, counts)
			}
			if mem > opts.InstanceMemoryMB || et > opts.MaxExecSec {
				feasible = false
				break
			}
			for i := lo; i < hi; i++ {
				sumET += et
			}
			if et > maxET {
				maxET = et
			}
		}
		if !feasible {
			continue
		}
		svc = append(svc, maxET+opts.Scaling.At(float64(b)))
		exp = append(exp, sumET*opts.RatePerInstanceSec)
		bins = append(bins, b)
	}
	return svc, exp, bins
}

// evalCounts evaluates a bin hosting counts[k] functions of apps[k]: its
// memory footprint (summed in app order, exactly as the naive per-bin loop
// sums it) and predicted ET.
func evalCounts(apps []App, opts MixedPlanOptions, counts []int) (mem, et float64) {
	for k, n := range counts {
		mem += float64(n) * apps[k].MemoryMB
	}
	return mem, PredictMixedET(apps, counts, opts.CrossDiscount)
}

// segregatedCandidates appends the per-application compositions to the
// columns, one leaf per combination of the apps' listed degrees, in rank
// order (decodeCombo's). The joint instance count couples the apps through
// the scaling model.
//
// Hot-path structure: each app's ET and instance count are tabulated once
// per listed degree, and the walk threads running (bins, sumET, maxET)
// prefix accumulators, so a leaf only appends its two cells. The
// accumulators apply the same operations in the same app order as a
// per-leaf loop would — an explicit et > m, not the builtin max, which
// propagates NaN — so every cell is bit-identical to the naive sweep.
func segregatedCandidates(apps []App, degrees [][]int, opts MixedPlanOptions, svc, exp []float64) ([]float64, []float64) {
	if degrees == nil {
		return svc, exp // some app cannot run at all
	}
	// The last bin of an app may be partial; its ET is approximated with the
	// full-degree value (pessimistic by ≤ one bin), matching Eq. 1's use.
	etTab := make([][]float64, len(apps))
	nTab := make([][]int, len(apps))
	combos := 1
	for k, a := range apps {
		etTab[k] = make([]float64, len(degrees[k]))
		nTab[k] = make([]int, len(degrees[k]))
		for i, d := range degrees[k] {
			etTab[k][i] = a.ET.At(d)
			nTab[k][i] = CeilDiv(a.Count, d)
		}
		combos *= len(degrees[k])
	}
	svc, exp = slices.Grow(svc, combos), slices.Grow(exp, combos)
	var walk func(k, bins int, sumET, maxET float64)
	walk = func(k, bins int, sumET, maxET float64) {
		if k == len(apps) {
			svc = append(svc, maxET+opts.Scaling.At(float64(bins)))
			exp = append(exp, sumET*opts.RatePerInstanceSec)
			return
		}
		for i, et := range etTab[k] {
			n := nTab[k][i]
			m := maxET
			if et > m {
				m = et
			}
			walk(k+1, bins+n, sumET+float64(n)*et, m)
		}
	}
	walk(0, 0, 0, 0)
	return svc, exp
}

// SegregatedBins lays out per-application bins: counts[k] functions of app
// k, degrees[k] to a bin, the last bin holding the remainder. Each bin is a
// count vector over the apps with one nonzero entry.
func SegregatedBins(counts, degrees []int) [][]int {
	var bins [][]int
	for k, remaining := range counts {
		for remaining > 0 {
			n := min(degrees[k], remaining)
			bin := make([]int, len(counts))
			bin[k] = n
			bins = append(bins, bin)
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
