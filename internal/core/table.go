package core

import (
	"errors"
	"fmt"
	"sync"
)

// The amortized planner hot path. Every Eq. 5–7 entry point needs the same
// per-degree vectors — ET(P), the instance count, service time (total and
// at quantiles), and expense — and the naive formulation recomputed them
// from scratch on every scan: OptimalDegreeForQuantile walked the degree
// range three times per call, QoSWeights repeated that for every weight
// step, and sweeps repeated *that* per concurrency and repetition. A
// DegreeTable computes the vectors once per (Models, concurrency) pair as
// one memory size's row of a GridTable (grid.go), which owns every search;
// a GridCache (LRU keyed by concurrency) amortizes tables across calls via
// the Planner wrapper.
//
// Equivalence contract: every table entry is computed with the exact
// expression the corresponding Models method uses (same operations, same
// order), so table-backed recommendations are bit-identical to the naive
// formulation. The property tests in table_equiv_test.go hold the planner
// to that contract against a retained naive reference.

// DegreeTable holds the per-degree model vectors for one (Models,
// concurrency) pair: one memory size's row of a GridTable. Build it with
// NewDegreeTable, or let a Planner manage a cache of them. A DegreeTable is
// safe for concurrent use.
type DegreeTable struct {
	m Models

	// Per-degree vectors, index p-1 for packing degree p.
	et      []float64 // Eq. 1: ET(P), as expected latency under the failure model
	inst    []float64 // ceil(c/P), as float (the paper's C/P)
	service []float64 // Eq. 3 argument: total (q=100) service time
	expense []float64 // Eq. 4 argument: user expense

	svcCol quantileColumn // the q=100 column, aliased to service

	mu        sync.Mutex
	quantiles map[float64]*quantileColumn // lazily built per requested q
}

// quantileColumn is one service-time quantile's per-degree vector.
type quantileColumn struct {
	vals []float64
}

// NewDegreeTable validates the models and concurrency and builds the table
// in one pass over the degree range.
func NewDegreeTable(m Models, c int) (*DegreeTable, error) { return m.direct().Table(c) }

// newDegreeTable builds the table without validation (internal callers
// validate first, matching each entry point's historical error order). It
// panics if the degree range is empty, as the naive argmin scan did. The
// vectors are the expectations under f; the zero FailureModel returns T, T
// and ×1, so a failure-blind row is bit-identical to the Models predictors.
func newDegreeTable(m Models, f FailureModel, c int) *DegreeTable {
	d := m.MaxDegree
	if d < 1 {
		panic("core: degree table over empty degree range")
	}
	buf := make([]float64, 4*d)
	t := &DegreeTable{
		m:       m,
		et:      buf[:d:d],
		inst:    buf[d : 2*d : 2*d],
		service: buf[2*d : 3*d : 3*d],
		expense: buf[3*d : 4*d : 4*d],
	}
	for i := 0; i < d; i++ {
		p := i + 1
		et := m.ET.At(p)
		n := instances(c, p)
		lat := f.ExpectedLatencySec(et)
		t.et[i] = lat
		t.inst[i] = n
		// Same expressions as (Reliable)Models.ServiceTime and Expense — the
		// bit-identity contract depends on it.
		t.service[i] = lat + m.Scaling.At(n)
		t.expense[i] = (f.ExpectedBilledSec(et)*m.RatePerInstanceSec + m.Storage.At(p)*f.ExpectedAttempts(et)) * n
	}
	t.svcCol = quantileColumn{vals: t.service}
	return t
}

// MaxDegree returns the table's degree range (degrees 1..MaxDegree).
func (t *DegreeTable) MaxDegree() int { return len(t.service) }

// ServiceTime returns the memoized Models.ServiceTime(c, degree).
func (t *DegreeTable) ServiceTime(degree int) float64 { return t.service[degree-1] }

// Expense returns the memoized Models.Expense(c, degree).
func (t *DegreeTable) Expense(degree int) float64 { return t.expense[degree-1] }

// ServiceTimeQuantile returns the memoized Models.ServiceTimeQuantile.
func (t *DegreeTable) ServiceTimeQuantile(degree int, q float64) float64 {
	return t.quantile(q).vals[degree-1]
}

// quantile returns the per-degree service-time vector at quantile q,
// building and caching it on first use. q=100 aliases the service vector
// (ServiceTimeQuantile reduces to ServiceTime there, including in floats:
// q/100 is exactly 1).
func (t *DegreeTable) quantile(q float64) *quantileColumn {
	if q == 100 {
		return &t.svcCol
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if col, ok := t.quantiles[q]; ok {
		return col
	}
	vals := make([]float64, len(t.et))
	qq := q / 100
	for i := range vals {
		// Same expression as Models.ServiceTimeQuantile.
		vals[i] = t.et[i] + t.m.Scaling.At(qq*t.inst[i])
	}
	col := &quantileColumn{vals: vals}
	if t.quantiles == nil {
		t.quantiles = make(map[float64]*quantileColumn, 2)
	}
	t.quantiles[q] = col
	return col
}

// minOf returns the minimum of a non-empty vector (ties keep the first,
// like the naive argmin scan; the value is what matters here).
func minOf(vals []float64) float64 {
	best := vals[0]
	for _, v := range vals[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// --- Grid cache --------------------------------------------------------------

// defaultTableCap bounds a Planner's table cache: sweeps revisit a modest
// set of concurrency levels, and one table is O(MaxDegree) floats per size.
const defaultTableCap = 64

// GridCache hands an entry point the GridTable it searches, for one fixed
// model stack — a GridModels, or a single Models as its one-row grid. Built
// with NewTableCache or NewGridCache it memoizes tables across concurrency
// levels, evicting least-recently-used entries beyond its capacity. Safe for
// concurrent use; the concurrent-serving path is lock free (see shardedCache
// in cache.go): a hit loads an immutable map snapshot through an atomic
// pointer — no mutex, so concurrent Advise/QoSPlan callers on distinct cores
// never serialize and nothing allocates — misses build outside every lock
// with singleflight coalescing, so each table builds exactly once, and
// eviction is LRU per shard (exact global LRU below 2·16 capacity, where a
// single shard is kept). The Models and GridModels methods plan through one
// that holds no tables at all and builds afresh on every call.
type GridCache struct {
	g       GridModels    // the memory grid; without sizes, the stack is the one row below
	row     Models        // the one-row stack
	failure FailureModel  // folded into the row's expectations (ReliableModels)
	invalid error         // the stack's Validate verdict, fixed with the stack
	sc      *shardedCache // nil: nothing is kept, every lookup builds
}

// NewGridCache builds a cache for the grid. capacity ≤ 0 means the default
// (64 concurrency levels).
func NewGridCache(g GridModels, capacity int) *GridCache {
	return (&GridCache{g: g, invalid: g.Validate()}).keeping(capacity)
}

// NewTableCache builds the cache of a single model stack: the grid cache of
// its one-row grid, validated as Models (no memory size is involved, so none
// is named in errors). capacity ≤ 0 means the default.
func NewTableCache(m Models, capacity int) *GridCache {
	return (&GridCache{row: m, invalid: m.Validate()}).keeping(capacity)
}

func (gc *GridCache) keeping(capacity int) *GridCache {
	if capacity <= 0 {
		capacity = defaultTableCap
	}
	gc.sc = newShardedCache(capacity, gc.build)
	return gc
}

func (gc *GridCache) build(c int) *GridTable {
	if len(gc.g.Sizes) > 0 {
		return newGridTable(gc.g, c)
	}
	return newRowTable(gc.row, gc.failure, c)
}

// Table returns the (possibly cached) grid table for concurrency c,
// validating inputs exactly as NewGridTable (or, for a one-row cache,
// NewDegreeTable) does.
func (gc *GridCache) Table(c int) (*GridTable, error) { return gc.table(c, nil) }

// table is Table with the weights check slotted between the model and
// concurrency checks, as every weighted entry point orders them. The nil
// cache is a Planner's missing memory grid.
func (gc *GridCache) table(c int, w *Weights) (*GridTable, error) {
	if gc == nil {
		return nil, ErrNoGrid
	}
	if err := checkInputs(gc.invalid, w, c); err != nil {
		return nil, err
	}
	if gc.sc == nil {
		return gc.build(c), nil
	}
	return gc.sc.get(c), nil
}

// Len reports the number of cached tables (for tests and diagnostics).
func (gc *GridCache) Len() int { return gc.sc.len() }

// Builds reports how many tables the cache has constructed since creation.
// With singleflight coalescing it equals the number of distinct concurrency
// levels requested (absent evictions) no matter how many goroutines raced —
// the concurrency stress tests assert exactly that.
func (gc *GridCache) Builds() uint64 { return gc.sc.builds.Load() }

// optimalConfig is the Eq. 7 argmin with the service objective at quantile q.
func (gc *GridCache) optimalConfig(c int, q float64, w Weights) (JointConfig, error) {
	t, err := gc.table(c, &w)
	if err == nil {
		err = checkQuantile(q)
	}
	if err != nil {
		return JointConfig{}, err
	}
	return t.cell(t.argminJoint(q, 1, w)), nil
}

// constrainedConfig is optimalConfig over the cells within maxInstances.
func (gc *GridCache) constrainedConfig(c int, w Weights, maxInstances int) (JointConfig, error) {
	t, err := gc.table(c, &w)
	if err != nil {
		return JointConfig{}, err
	}
	return t.constrainedJoint(w, maxInstances)
}

// planFor is the full recommendation at weights w: the Eq. 7 argmin's plan.
func (gc *GridCache) planFor(c int, w Weights) (JointPlan, error) {
	t, err := gc.table(c, &w)
	if err != nil {
		return JointPlan{}, err
	}
	return t.planFor(w), nil
}

// qosPlan is the Eq. 9 weight search, then the plan at those weights, over
// one table. The QoS bound and options are judged before the stack and the
// concurrency — the error order every QoS entry point has always had.
func (gc *GridCache) qosPlan(c int, qosSec float64, opts QoSOptions) (JointPlan, Weights, error) {
	if gc == nil {
		return JointPlan{}, Weights{}, ErrNoGrid
	}
	tailQ, step, err := opts.normalize(qosSec)
	if err != nil {
		return JointPlan{}, Weights{}, err
	}
	t, err := gc.Table(c)
	if err != nil {
		return JointPlan{}, Weights{}, err
	}
	w, err := qosSearchJoint(t, qosSec, tailQ, step)
	if err != nil {
		return JointPlan{}, Weights{}, err
	}
	return t.planFor(w), w, nil
}

// --- Planner -----------------------------------------------------------------

// ErrNoGrid is returned by a Planner's joint entry points when the planner
// was built without a memory grid (NewPlanner instead of NewJointPlanner).
var ErrNoGrid = errors.New("core: planner has no memory grid")

// Planner is the one implementation of every planning entry point: each
// method fetches the GridTable for its concurrency and runs the shared
// search over it. NewPlanner and NewJointPlanner give it grid-table caches,
// so repeated calls at the same concurrency — sweeps over weights,
// quantiles, or repetitions — reuse one table; the Models and GridModels
// methods are these same methods on a planner that keeps no tables, so the
// two agree bit for bit and differ only in amortization. Safe for
// concurrent use.
//
// The 1-D methods search the one-row grid of the planner's Models. A planner
// built with NewJointPlanner additionally carries a memory-size grid and
// answers the joint (degree × memory) entry points — OptimalConfig,
// PlanJointFor, QoSPlanJoint — with the same searches over every row; its
// 1-D methods answer at the grid's largest (base) size.
type Planner struct {
	cache *GridCache // the one-row grid of the (base) models
	grid  *GridCache // nil unless built with NewJointPlanner
}

// NewPlanner builds a planner with the default cache capacity.
func NewPlanner(m Models) *Planner {
	return &Planner{cache: NewTableCache(m, 0)}
}

// NewJointPlanner builds a planner over a memory-size grid: the joint entry
// points plan over every (degree, size) cell, and the 1-D entry points keep
// working against the grid's largest (base) size — the conventional
// deployment the joint plans are baselined against.
func NewJointPlanner(g GridModels) (*Planner, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Planner{cache: NewTableCache(g.Base(), 0), grid: NewGridCache(g, 0)}, nil
}

// direct is the planner the Models methods answer through: no tables kept.
func (m Models) direct() *Planner {
	return &Planner{cache: &GridCache{row: m, invalid: m.Validate()}}
}

// direct is the planner the GridModels methods answer through.
func (g GridModels) direct() *Planner {
	return &Planner{grid: &GridCache{g: g, invalid: g.Validate()}}
}

// Models returns the wrapped models (the base size's, for a joint planner).
func (pl *Planner) Models() Models { return pl.cache.row }

// Grid returns the planner's memory grid, if it has one.
func (pl *Planner) Grid() (GridModels, bool) {
	if pl.grid == nil {
		return GridModels{}, false
	}
	return pl.grid.g, true
}

// Table exposes the cached DegreeTable for concurrency c, for callers that
// scan degrees themselves (the serve daemon's fixed-degree /v1/plan
// endpoint reads service/expense straight off it). It validates exactly as
// NewDegreeTable does and shares the planner's cache and singleflight.
func (pl *Planner) Table(c int) (*DegreeTable, error) {
	t, err := pl.cache.Table(c)
	if err != nil {
		return nil, err
	}
	return t.Size(0), nil
}

// OptimalDegree is the cached Models.OptimalDegree.
func (pl *Planner) OptimalDegree(c int, w Weights) (int, error) {
	return pl.OptimalDegreeForQuantile(c, 100, w)
}

// OptimalDegreeForQuantile is the cached Models.OptimalDegreeForQuantile.
func (pl *Planner) OptimalDegreeForQuantile(c int, q float64, w Weights) (int, error) {
	cfg, err := pl.cache.optimalConfig(c, q, w)
	return cfg.Degree, err
}

// OptimalDegreeService is the cached Models.OptimalDegreeService.
func (pl *Planner) OptimalDegreeService(c int) int {
	t, err := pl.cache.Table(c)
	if err != nil {
		panic(err) // mirrors the naive argmin's panic contract
	}
	_, deg := t.argminService()
	return deg
}

// OptimalDegreeExpense is the cached Models.OptimalDegreeExpense.
func (pl *Planner) OptimalDegreeExpense(c int) int {
	t, err := pl.cache.Table(c)
	if err != nil {
		panic(err)
	}
	_, deg := t.argminExpense()
	return deg
}

// OptimalDegreeConstrained is the cached Models.OptimalDegreeConstrained.
func (pl *Planner) OptimalDegreeConstrained(c int, w Weights, maxInstances int) (int, error) {
	cfg, err := pl.cache.constrainedConfig(c, w, maxInstances)
	return cfg.Degree, err
}

// PlanFor is the cached Models.PlanFor.
func (pl *Planner) PlanFor(c int, w Weights) (Plan, error) {
	jp, err := pl.cache.planFor(c, w)
	return jp.Plan, err
}

// DegreeRange is the cached Models.DegreeRange.
func (pl *Planner) DegreeRange(c int, w Weights, tol float64) (lo, hi int, err error) {
	if tol < 0 {
		return 0, 0, fmt.Errorf("core: negative tolerance %g", tol)
	}
	t, err := pl.cache.table(c, &w)
	if err != nil {
		return 0, 0, err
	}
	lo, hi = t.degreeRange(w, tol)
	return lo, hi, nil
}

// TailServiceAt is the cached Models.TailServiceAt.
func (pl *Planner) TailServiceAt(c int, w Weights, tailQuantile float64) (float64, error) {
	t, err := pl.cache.table(c, &w)
	if err == nil {
		err = checkQuantile(tailQuantile)
	}
	if err != nil {
		return 0, err
	}
	si, deg := t.argminJoint(100, 1, w)
	return t.sizes[si].t.quantile(tailQuantile).vals[deg-1], nil
}

// QoSWeights is the cached Models.QoSWeights.
func (pl *Planner) QoSWeights(c int, qosSec float64, opts QoSOptions) (Weights, error) {
	_, w, err := pl.cache.qosPlan(c, qosSec, opts)
	return w, err
}

// QoSPlan is the cached Models.QoSPlan.
func (pl *Planner) QoSPlan(c int, qosSec float64, opts QoSOptions) (Plan, Weights, error) {
	jp, w, err := pl.cache.qosPlan(c, qosSec, opts)
	return jp.Plan, w, err
}

// OptimalConfig is the cached GridModels.OptimalConfig.
func (pl *Planner) OptimalConfig(c int, q float64, w Weights) (JointConfig, error) {
	return pl.grid.optimalConfig(c, q, w)
}

// OptimalConfigConstrained is the cached GridModels.OptimalConfigConstrained.
func (pl *Planner) OptimalConfigConstrained(c int, w Weights, maxInstances int) (JointConfig, error) {
	return pl.grid.constrainedConfig(c, w, maxInstances)
}

// PlanJointFor is the cached GridModels.PlanJointFor.
func (pl *Planner) PlanJointFor(c int, w Weights) (JointPlan, error) {
	return pl.grid.planFor(c, w)
}

// QoSPlanJoint is the cached GridModels.QoSPlanJoint.
func (pl *Planner) QoSPlanJoint(c int, qosSec float64, opts QoSOptions) (JointPlan, Weights, error) {
	return pl.grid.qosPlan(c, qosSec, opts)
}
