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
// Two disciplines hold the search to the paper's definition:
//
//   - Bit-identity: candidate enumeration is size-major with first-wins
//     strict-< tie-breaking, every per-cell expression is the Models
//     predictor's, and the minima folds are plain left-to-right comparison
//     chains — so on one row the search is the naive degree-by-degree Eq. 7
//     scan, float for float. table_equiv_test.go checks exactly that against
//     retained naive references.
//
//   - Pruned search stays exact: the 2-D argmin skips whole memory rows via
//     per-size lower bounds, but only when skipping provably cannot change
//     the answer *in float arithmetic* (see argminJoint); anything
//     degenerate falls back to the exhaustive scan, which is retained as
//     the test oracle (argminJointExact, grid_equiv_test.go).

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

// JointConfig is a chosen (packing degree, memory size) cell.
type JointConfig struct {
	Degree int
	MemMB  float64
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
// concurrency) pair, plus the per-size minima that power the pruned 2-D
// argmin. Quantile columns stay lazy per size (a size whose row is pruned
// never materializes them). Safe for concurrent use.
type GridTable struct {
	c int

	sizes []gridSize

	// expenseNaN records whether any row's expense minimum is NaN (an
	// overflowed ET times a zero rate). A NaN row minimum means the row's
	// first element is NaN — minOf never leaves NaN once seeded with it —
	// and folding such row minima is NOT equivalent to the flat fold the
	// exact scan implies, so bestExpense must take the flat fold then.
	expenseNaN bool
}

// gridSize is one memory row: its DegreeTable and the row minima used as
// pruning lower bounds.
type gridSize struct {
	memMB float64
	t     *DegreeTable

	// Row minima over the full degree range (hence lower bounds for any
	// restricted range too):
	minET      float64 // min ET(P): lower bound on every quantile-service value
	minService float64 // min total service (the q=100 column)
	minExpense float64 // min expense
}

// NewGridTable validates the grid and concurrency and builds the per-size
// tables in one pass.
func NewGridTable(g GridModels, c int) (*GridTable, error) { return g.direct().grid.Table(c) }

// newGridTable builds without validation (internal callers validate first,
// preserving each entry point's error order).
func newGridTable(g GridModels, c int) *GridTable {
	t := &GridTable{c: c, sizes: make([]gridSize, 0, len(g.Sizes))}
	for _, s := range g.Sizes {
		t.addRow(s.MemMB, newDegreeTable(s.Models, FailureModel{}, c))
	}
	return t
}

// newRowTable builds the one-row grid the fixed-size entry points search:
// m's row under failure model f, at no particular memory size.
func newRowTable(m Models, f FailureModel, c int) *GridTable {
	t := &GridTable{c: c, sizes: make([]gridSize, 0, 1)}
	t.addRow(0, newDegreeTable(m, f, c))
	return t
}

func (t *GridTable) addRow(memMB float64, dt *DegreeTable) {
	gs := gridSize{
		memMB:      memMB,
		t:          dt,
		minET:      minOf(dt.et),
		minService: minOf(dt.service),
		minExpense: minOf(dt.expense),
	}
	if math.IsNaN(gs.minExpense) {
		t.expenseNaN = true
	}
	t.sizes = append(t.sizes, gs)
}

// NumSizes returns the number of memory sizes in the grid.
func (t *GridTable) NumSizes() int { return len(t.sizes) }

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

// argminJointExact is the exhaustive Eq. 7 scan over every (size, degree)
// cell — the oracle the pruned argminJoint must match on every input, and
// the fallback it takes on degenerate inputs. Candidates are enumerated
// size-major (sizes ascending, degrees minDeg..MaxDegree) with first-wins
// strict-< tie-breaking — ties resolve to the smallest size, then the
// smallest degree — so on one row it is the naive degree-by-degree scan.
func (t *GridTable) argminJointExact(q float64, minDeg int, w Weights) (si, deg int) {
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
			dS := (s - bestS) / bestS      // Eq. 5, over the whole grid
			dE := (exp[j] - bestE) / bestE // Eq. 6, over the whole grid
			if v := w.Service*dS + w.Expense*dE; v < bestVal {
				bestSi, bestDeg, bestVal = i, j+minDeg, v
			}
		}
	}
	if bestSi < 0 {
		return t.firstEligible(minDeg)
	}
	return bestSi, bestDeg
}

// jointBaselines computes the Eqs. 5–6 baselines over every cell with the
// exact fold the exhaustive scan implies: initialized from the first
// candidate, then strict-< comparisons in enumeration order — identical to
// minOf over the virtual concatenation of rows (including its NaN
// semantics).
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

// bestExpense is the exact Eq. 6 baseline over the restricted grid. With
// the full range and no NaN row minima it folds the cached row minima
// (grouping a strict-< fold by rows changes nothing when no group's minimum
// is NaN); a restricted range or a NaN row minimum folds the vectors
// directly, reproducing the exact scan's comparison chain verbatim.
func (t *GridTable) bestExpense(minDeg int) float64 {
	if minDeg == 1 && !t.expenseNaN {
		best := t.sizes[0].minExpense
		for i := 1; i < len(t.sizes); i++ {
			if m := t.sizes[i].minExpense; m < best {
				best = m
			}
		}
		return best
	}
	return t.minOver(minDeg, func(gs *gridSize) []float64 { return gs.t.expense }, false)
}

// bestServiceAt is the exact Eq. 5 baseline at quantile q over the
// restricted grid. For q < 100 a size's quantile column is materialized only
// when its ET row minimum admits an improvement: every quantile value is
// et + Scaling.At(·) with Scaling clamped ≥ 0, and correctly-rounded
// addition of a non-negative term never rounds below et, so a row with
// minET > best cannot contain a smaller value. Service vectors are NaN-free
// (sums of non-negatives), so the fold's minimum is order-independent and
// skipping preserves the exact value.
func (t *GridTable) bestServiceAt(q float64, minDeg int) float64 {
	if q == 100 && minDeg == 1 {
		best := t.sizes[0].minService
		for i := 1; i < len(t.sizes); i++ {
			if m := t.sizes[i].minService; m < best {
				best = m
			}
		}
		return best
	}
	return t.minOver(minDeg, func(gs *gridSize) []float64 { return gs.t.quantile(q).vals }, q != 100)
}

// minOver folds one column over the cells at degrees ≥ minDeg exactly as the
// exhaustive scan would: seeded from the first such cell, then strict-<
// comparisons in size-major order. With etFloor (service columns only) a
// row whose minET exceeds the running minimum is skipped before col
// materializes its vector.
func (t *GridTable) minOver(minDeg int, col func(*gridSize) []float64, etFloor bool) float64 {
	best, started := math.NaN(), false
	for i := range t.sizes {
		gs := &t.sizes[i]
		if minDeg > gs.t.MaxDegree() {
			continue
		}
		if started && etFloor && gs.minET > best {
			continue // every value in this row is ≥ minET > best
		}
		vals := col(gs)[minDeg-1:]
		if !started {
			best, started = vals[0], true
		}
		for _, v := range vals {
			if v < best {
				best = v
			}
		}
	}
	return best
}

// argminJoint is the pruned 2-D Eq. 7 argmin. It returns exactly what
// argminJointExact returns — pruning only skips work, never changes the
// answer — at a cost that approaches the 1-D scan when one size dominates:
//
//   - The baselines bestS/bestE are exact minima (bestServiceAt
//     materializes quantile columns only for rows whose minET admits an
//     improvement).
//   - A whole memory row is skipped when its cheapest possible regret —
//     computed from the cached row minima — already exceeds the incumbent:
//     lb = W_S·(lbS−bestS)/bestS + W_E·(minExpense−bestE)/bestE with
//     lbS ≤ every service value and minExpense ≤ every expense value in the
//     row. With bestS, bestE positive finite and W_S, W_E ≥ 0, every
//     operation in a candidate's regret (subtraction of a constant,
//     division by a positive constant, multiplication by a non-negative
//     weight, addition) is monotone under correct rounding, so every
//     candidate in the row has v ≥ lb > bestVal and would lose the strict-<
//     comparison anyway. Skipping such a row is therefore exact in float
//     arithmetic, not just in real arithmetic. Ties are unaffected: a
//     skipped candidate could at best *equal* the incumbent's value, and
//     equal-valued later candidates lose under first-wins.
//   - Degenerate inputs — a non-positive or non-finite baseline (regrets
//     divide by it) or a negative weight (Weights.Validate admits −1e-9) —
//     void the monotonicity argument, so the search falls back to the
//     exhaustive oracle.
//
// The first eligible row can never be skipped (lb > +Inf is false), so the
// incumbent always exists before any skip test can pass.
func (t *GridTable) argminJoint(q float64, minDeg int, w Weights) (si, deg int) {
	if w.Service < 0 || w.Expense < 0 {
		return t.argminJointExact(q, minDeg, w)
	}
	bestE := t.bestExpense(minDeg)
	bestS := t.bestServiceAt(q, minDeg)
	if !(bestS > 0) || !(bestE > 0) || math.IsInf(bestS, 1) || math.IsInf(bestE, 1) {
		return t.argminJointExact(q, minDeg, w)
	}
	bestSi, bestDeg, bestVal := -1, 0, math.Inf(1)
	for i := range t.sizes {
		gs := &t.sizes[i]
		dt := gs.t
		if minDeg > dt.MaxDegree() {
			continue
		}
		lbS := gs.minService
		if q != 100 {
			lbS = gs.minET
		}
		lb := w.Service*((lbS-bestS)/bestS) + w.Expense*((gs.minExpense-bestE)/bestE)
		if lb > bestVal {
			continue // no cell in this row can beat the incumbent
		}
		svc := dt.quantile(q).vals[minDeg-1:]
		exp := dt.expense[minDeg-1:]
		for j, s := range svc {
			dS := (s - bestS) / bestS
			dE := (exp[j] - bestE) / bestE
			if v := w.Service*dS + w.Expense*dE; v < bestVal {
				bestSi, bestDeg, bestVal = i, j+minDeg, v
			}
		}
	}
	if bestSi < 0 {
		return t.firstEligible(minDeg)
	}
	return bestSi, bestDeg
}

// argminService is the joint Eq. 3 argmin (first-wins across the size-major
// enumeration).
func (t *GridTable) argminService() (si, deg int) {
	return t.argminColumnJoint(func(gs *gridSize) []float64 { return gs.t.service })
}

// argminExpense is the joint Eq. 4 argmin.
func (t *GridTable) argminExpense() (si, deg int) {
	return t.argminColumnJoint(func(gs *gridSize) []float64 { return gs.t.expense })
}

func (t *GridTable) argminColumnJoint(col func(*gridSize) []float64) (si, deg int) {
	bestSi, bestDeg, bestVal := 0, 1, col(&t.sizes[0])[0]
	for i := range t.sizes {
		vals := col(&t.sizes[i])
		for j, v := range vals {
			if v < bestVal {
				bestSi, bestDeg, bestVal = i, j+1, v
			}
		}
	}
	return bestSi, bestDeg
}

// cell names the (degree, memory size) of a chosen cell.
func (t *GridTable) cell(si, deg int) JointConfig {
	return JointConfig{Degree: deg, MemMB: t.sizes[si].memMB}
}

// constrainedJoint is the Eq. 7 argmin restricted to cells whose instance
// count stays within maxInstances (≤ 0 means unconstrained), with the regret
// baselines (Eqs. 5–6) taken over the same restricted range. The
// infeasibility error quotes the widest degree range across sizes.
func (t *GridTable) constrainedJoint(w Weights, maxInstances int) (JointConfig, error) {
	minDegree := 1
	if maxInstances > 0 {
		minDegree = (t.c + maxInstances - 1) / maxInstances
		if minDegree > t.maxDegreeAny() {
			return JointConfig{}, fmt.Errorf("core: concurrency %d cannot fit %d instances even at degree %d",
				t.c, maxInstances, t.maxDegreeAny())
		}
	}
	return t.cell(t.argminJoint(100, minDegree, w)), nil
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
// degrees around the Eq. 7 optimum whose weighted regret stays within tol of
// the optimum's. The regret keeps DegreeRange's historical grouping,
// W·(x−best)/best — not Eq. 7's W·((x−best)/best) — because the band edges
// are pinned in the serve goldens.
func (t *GridTable) degreeRange(w Weights, tol float64) (lo, hi int) {
	gs := &t.sizes[0]
	svc, exp := gs.t.service, gs.t.expense
	bestS, bestE := gs.minService, gs.minExpense
	regret := func(p int) float64 {
		return w.Service*(svc[p-1]-bestS)/bestS + w.Expense*(exp[p-1]-bestE)/bestE
	}
	_, best := t.argminJoint(100, 1, w)
	bound := regret(best) + tol
	lo, hi = best, best
	for lo > 1 && regret(lo-1) <= bound {
		lo--
	}
	for hi < len(svc) && regret(hi+1) <= bound {
		hi++
	}
	return lo, hi
}

// --- GridModels entry points -------------------------------------------------

// OptimalConfig is the joint Eq. 7 argmin at service quantile q: the
// (degree, memory size) cell minimizing the weighted regret sum, with the
// Eqs. 5–6 baselines taken over the whole grid.
func (g GridModels) OptimalConfig(c int, q float64, w Weights) (JointConfig, error) {
	return g.direct().OptimalConfig(c, q, w)
}

// OptimalConfigService is the joint Eq. 3 argmin: the cell minimizing
// modeled total service time.
func (g GridModels) OptimalConfigService(c int) JointConfig {
	t := newGridTable(g, c)
	return t.cell(t.argminService())
}

// OptimalConfigExpense is the joint Eq. 4 argmin: the cell minimizing
// modeled expense.
func (g GridModels) OptimalConfigExpense(c int) JointConfig {
	t := newGridTable(g, c)
	return t.cell(t.argminExpense())
}

// OptimalConfigConstrained is OptimalConfig restricted to cells whose
// instance count stays within maxInstances. maxInstances ≤ 0 means
// unconstrained.
func (g GridModels) OptimalConfigConstrained(c int, w Weights, maxInstances int) (JointConfig, error) {
	return g.direct().OptimalConfigConstrained(c, w, maxInstances)
}

// PlanJointFor computes the full joint recommendation at concurrency c.
func (g GridModels) PlanJointFor(c int, w Weights) (JointPlan, error) {
	return g.direct().PlanJointFor(c, w)
}

// QoSWeightsJoint is Eq. 9 over the grid: the smallest W_S whose joint
// recommendation keeps the modeled tail service time within qosSec.
func (g GridModels) QoSWeightsJoint(c int, qosSec float64, opts QoSOptions) (Weights, error) {
	_, w, err := g.direct().QoSPlanJoint(c, qosSec, opts)
	return w, err
}

// QoSPlanJoint recommends a (degree, memory size) cell that jointly
// optimizes service time and expense while keeping the modeled tail latency
// within qosSec. The weight search and the final plan share one grid table.
func (g GridModels) QoSPlanJoint(c int, qosSec float64, opts QoSOptions) (JointPlan, Weights, error) {
	return g.direct().QoSPlanJoint(c, qosSec, opts)
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
	if err := checkSizeGrid(g.MemSizesMB()); err != nil {
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
