package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// The planner's one search. ProPack as published picks only a packing degree
// P at a fixed instance size, but real platforms couple CPU share to the
// memory size purchased (Lambda allocates ~1 vCPU per 1769 MB), which makes
// memory a second planning axis: a smaller size is cheaper per
// instance-second but slows every function packed into it, so the Eq. 5–7
// regret trade-off has a second dimension. A GridTable is a (P × mem) grid —
// one DegreeTable row per memory size, each built from that size's
// independently fitted model stack — and every Eq. 3–9 entry point is an
// argmin over it. The paper's fixed-size planner is the one-row grid: the
// Models entry points build a single row and run this same code.
//
// The search is one exhaustive Eq. 7 scan (argminJoint): candidate
// enumeration is size-major with first-wins strict-< tie-breaking, every
// per-cell expression is the Models predictor's, and the baseline folds are
// plain left-to-right comparison chains — so on one row it is the naive
// degree-by-degree Eq. 7 scan, float for float. table_equiv_test.go and
// grid_equiv_test.go hold it to naive references evaluated straight off the
// Models predictors.

// SizeModels is one memory size's fitted model stack. Alpha, the storage
// term, the expense rate, and the feasible degree range are all per-size
// (CPU share scales with memory, so interference differs per size); the
// scaling model is a platform property shared across sizes.
type SizeModels struct {
	// MemMB is the purchased instance memory in MB.
	MemMB float64
	// Models predicts service time and expense at this size.
	Models Models
}

// GridModels is the joint planner's input: per-size model stacks over a
// strictly increasing memory-size grid. The zero value is invalid; build
// one with BuildGridModels or assemble it from per-size fits.
type GridModels struct {
	Sizes []SizeModels
}

// Base returns the largest size's models — the conventional full-size
// deployment every joint plan is baselined against.
func (g GridModels) Base() Models { return g.Sizes[len(g.Sizes)-1].Models }

// MemSizesMB lists the grid's memory sizes in ascending order.
func (g GridModels) MemSizesMB() []float64 {
	out := make([]float64, len(g.Sizes))
	for i, s := range g.Sizes {
		out[i] = s.MemMB
	}
	return out
}

// JointPlan is a Plan extended with the chosen memory size. The embedded
// Plan's baseline is degree 1 at the grid's largest memory size — the
// deployment a user who tunes nothing would run.
type JointPlan struct {
	Plan
	MemMB float64
}

// --- GridTable ---------------------------------------------------------------

// GridTable holds the memoized per-size DegreeTables for one (GridModels,
// concurrency) pair. Quantile columns stay lazy per size. Safe for
// concurrent use.
type GridTable struct {
	c int

	sizes []gridSize
}

// gridSize is one memory row.
type gridSize struct {
	memMB float64
	t     *DegreeTable
}

// NewGridTable validates the grid and concurrency and builds the per-size
// tables in one pass.
func NewGridTable(g GridModels, c int) (*GridTable, error) { return g.direct().grid.Table(c) }

// newGridTable builds without validation (internal callers validate first,
// preserving each entry point's error order).
func newGridTable(g GridModels, c int) *GridTable {
	t := &GridTable{c: c, sizes: make([]gridSize, len(g.Sizes))}
	for i, s := range g.Sizes {
		t.sizes[i] = gridSize{memMB: s.MemMB, t: newDegreeTable(s.Models, FailureModel{}, c)}
	}
	return t
}

// newRowTable builds the one-row grid the fixed-size entry points search:
// m's row under failure model f, at no particular memory size.
func newRowTable(m Models, f FailureModel, c int) *GridTable {
	return &GridTable{c: c, sizes: []gridSize{{t: newDegreeTable(m, f, c)}}}
}

// Size returns the i-th memory size's DegreeTable, for callers that scan
// cells themselves (sweeps, the serve daemon's per-size reporting).
func (t *GridTable) Size(i int) *DegreeTable { return t.sizes[i].t }

// maxDegreeAny is the widest degree range across sizes (sizes are ragged:
// each has its own feasibility cap).
func (t *GridTable) maxDegreeAny() int {
	md := 0
	for i := range t.sizes {
		if d := t.sizes[i].t.MaxDegree(); d > md {
			md = d
		}
	}
	return md
}

// firstEligible is the default cell when no candidate wins the argmin (all
// regrets NaN): the first size admitting minDeg, at minDeg.
func (t *GridTable) firstEligible(minDeg int) (si, deg int) {
	for i := range t.sizes {
		if minDeg <= t.sizes[i].t.MaxDegree() {
			return i, minDeg
		}
	}
	return 0, minDeg // unreachable: callers check minDeg ≤ maxDegreeAny
}

// argminJoint is the Eq. 7 argmin over every (size, degree) cell at degrees
// ≥ minDeg, with the Eqs. 5–6 baselines taken over the same cells.
// Candidates are enumerated size-major (sizes ascending, degrees
// minDeg..MaxDegree) with first-wins strict-< tie-breaking — ties resolve to
// the smallest size, then the smallest degree — so on one row it is the
// naive degree-by-degree scan. A zero weight drops its term
// (Weights.regret), a zero baseline takes FracRegret's limit, and when no
// regret compares (all NaN), firstEligible stands.
func (t *GridTable) argminJoint(q float64, minDeg int, w Weights) (si, deg int) {
	bestS, bestE := t.jointBaselines(q, minDeg)
	bestSi, bestDeg, bestVal := -1, 0, math.Inf(1)
	for i := range t.sizes {
		dt := t.sizes[i].t
		if minDeg > dt.MaxDegree() {
			continue
		}
		svc := dt.quantile(q).vals[minDeg-1:]
		exp := dt.expense[minDeg-1:]
		for j, s := range svc {
			dS := FracRegret(s, bestS)      // Eq. 5, over the whole grid
			dE := FracRegret(exp[j], bestE) // Eq. 6, over the whole grid
			if v := w.regret(dS, dE); v < bestVal {
				bestSi, bestDeg, bestVal = i, j+minDeg, v
			}
		}
	}
	if bestSi < 0 {
		return t.firstEligible(minDeg)
	}
	return bestSi, bestDeg
}

// jointBaselines computes the Eqs. 5–6 baselines over every cell at degrees
// ≥ minDeg: initialized from the first candidate, then strict-< comparisons
// in enumeration order (so a NaN first cell stays the baseline).
func (t *GridTable) jointBaselines(q float64, minDeg int) (bestS, bestE float64) {
	started := false
	for i := range t.sizes {
		dt := t.sizes[i].t
		if minDeg > dt.MaxDegree() {
			continue
		}
		svc := dt.quantile(q).vals[minDeg-1:]
		exp := dt.expense[minDeg-1:]
		j := 0
		if !started {
			bestS, bestE = svc[0], exp[0]
			started = true
			j = 1
		}
		for ; j < len(svc); j++ {
			if svc[j] < bestS {
				bestS = svc[j]
			}
			if exp[j] < bestE {
				bestE = exp[j]
			}
		}
	}
	return bestS, bestE
}

// constrainedDegree is the Eq. 7 argmin restricted to cells whose instance
// count stays within maxInstances (≤ 0 means unconstrained), with the regret
// baselines (Eqs. 5–6) taken over the same restricted range. The
// infeasibility error quotes the widest degree range across sizes.
func (t *GridTable) constrainedDegree(w Weights, maxInstances int) (int, error) {
	minDegree := 1
	if maxInstances > 0 {
		minDegree = (t.c-1)/maxInstances + 1 // ⌈c/max⌉; c+max−1 overflows near MaxInt
		if minDegree > t.maxDegreeAny() {
			return 0, fmt.Errorf("core: concurrency %d cannot fit %d instances even at degree %d",
				t.c, maxInstances, t.maxDegreeAny())
		}
	}
	_, deg := t.argminJoint(100, minDegree, w)
	return deg, nil
}

// plan materializes the JointPlan for a chosen cell from memoized
// predictions. The baseline is degree 1 at the grid's largest size — the
// conventional untuned deployment, and on one row simply no packing.
func (t *GridTable) plan(si, deg int, w Weights) JointPlan {
	base := t.sizes[len(t.sizes)-1].t
	cell := t.sizes[si].t
	return JointPlan{
		Plan: Plan{
			Concurrency:         t.c,
			Degree:              deg,
			Weights:             w,
			PredictedServiceSec: cell.service[deg-1],
			PredictedExpenseUSD: cell.expense[deg-1],
			BaselineServiceSec:  base.service[0],
			BaselineExpenseUSD:  base.expense[0],
		},
		MemMB: t.sizes[si].memMB,
	}
}

// planFor is the plan at the Eq. 7 argmin for weights w.
func (t *GridTable) planFor(w Weights) JointPlan {
	si, deg := t.argminJoint(100, 1, w)
	return t.plan(si, deg, w)
}

// degreeRange is the plan-stability band of a one-row table: the contiguous
// degrees around the Eq. 7 optimum whose weighted regret stays within
// degreeRangeTol of the optimum's. The regret keeps DegreeRange's historical
// grouping, W·(x−best)/best — not Eq. 7's W·((x−best)/best) — because the
// band edges are pinned in the serve goldens. A zero weight drops its term,
// as Weights.regret does, and a zero baseline takes FracRegret's limit, so
// neither can close the band with a NaN.
func (t *GridTable) degreeRange(w Weights) (lo, hi int) {
	svc, exp := t.sizes[0].t.service, t.sizes[0].t.expense
	bestS, bestE := t.jointBaselines(100, 1)
	term := func(w, x, b float64) float64 {
		if b == 0 {
			return w * FracRegret(x, b)
		}
		return w * (x - b) / b
	}
	regret := func(p int) (r float64) {
		if w.Service != 0 {
			r = term(w.Service, svc[p-1], bestS)
		}
		if w.Expense != 0 {
			r += term(w.Expense, exp[p-1], bestE)
		}
		return r
	}
	_, best := t.argminJoint(100, 1, w)
	bound := regret(best) + degreeRangeTol
	lo, hi = best, best
	for lo > 1 && regret(lo-1) <= bound {
		lo--
	}
	for hi < len(svc) && regret(hi+1) <= bound {
		hi++
	}
	return lo, hi
}

// --- Grid profiling ----------------------------------------------------------

// SizeProbe is one memory size's probing setup: a measurer against the
// platform resized to that memory (CPU share scales with it) and the
// profile options derived at that size (per-size MaxDegree and expense
// rate). Build them with GridProbesFor for the simulator, or assemble them
// around live measurers.
type SizeProbe struct {
	MemMB float64
	Meas  Measurer
	Opts  ProfileOptions
}

// BuildGridModels runs the modeling pipeline once per memory size and
// assembles the grid: each size gets its own interference train (per-size α
// — CPU share differs per size, so interference does too) and storage fit
// via the existing FitET/FitStorage machinery, while all sizes share one
// scaling probe schedule — scaling time is a platform property, probed once
// at the largest (base) size and fitted once (Sec. 2.2: the probe runs no
// application code, so it cannot depend on the function's size either).
// Probes must be in strictly increasing memory order; fit failures name the
// offending memory size (unwrap to stats.ErrNonFinite and friends).
func BuildGridModels(probes []SizeProbe) (GridModels, Overhead, error) {
	var ov Overhead
	g := GridModels{Sizes: make([]SizeModels, len(probes))}
	for i, sp := range probes {
		g.Sizes[i].MemMB = sp.MemMB
	}
	if err := CheckSizeGrid(g.MemSizesMB()); err != nil {
		return GridModels{}, ov, err
	}
	for i, sp := range probes {
		m, err := buildSizeModels(sp, &ov)
		if err != nil {
			return GridModels{}, ov, fmt.Errorf("core: memory size %g MB: %w", sp.MemMB, err)
		}
		g.Sizes[i].Models = m
	}

	// One scaling schedule for the whole grid, probed at the base size.
	base := probes[len(probes)-1]
	scSamples, err := probeScaling(base.Meas, base.Opts, &ov)
	if err != nil {
		return GridModels{}, ov, fmt.Errorf("core: memory size %g MB: %w", base.MemMB, err)
	}
	scModel, err := FitScaling(scSamples)
	if err != nil {
		return GridModels{}, ov, fmt.Errorf("core: memory size %g MB: %w", base.MemMB, err)
	}
	for i := range g.Sizes {
		g.Sizes[i].Models.Scaling = scModel
	}
	if err := g.Validate(); err != nil {
		return GridModels{}, ov, err
	}
	return g, ov, nil
}

// buildSizeModels is one memory size's fits: the interference train plus
// the Eq. 1 and storage fits, leaving Scaling to the shared fit.
func buildSizeModels(sp SizeProbe, ov *Overhead) (Models, error) {
	etSamples, costSamples, maxFeasible, err := probeInterference(sp.Meas, sp.Opts, ov)
	if err != nil {
		return Models{}, err
	}
	etModel, err := FitET(etSamples, sp.Opts.MfuncGB, sp.Opts.FitET)
	if err != nil {
		if errors.Is(err, stats.ErrNonFinite) {
			return Models{}, fmt.Errorf("core: fitting Eq. 1 from %d probes: %w", len(etSamples), err)
		}
		return Models{}, err
	}
	storageModel, err := FitStorage(costSamples)
	if err != nil {
		return Models{}, err
	}
	return Models{
		ET:                 etModel,
		Storage:            storageModel,
		RatePerInstanceSec: sp.Opts.RatePerInstanceSec,
		MaxDegree:          maxFeasible,
	}, nil
}
