package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/stats"
)

// The amortized planner hot path. Every Eq. 5–7 entry point needs the same
// per-degree vectors — ET(P), the instance count, service time (total and
// at quantiles), and expense — and the naive formulation recomputed them
// from scratch on every scan: a quantile argmin walked the degree range
// three times per call, the QoS weight search repeated that for every weight
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
		// Same expressions as Models.ServiceTime and Expense with the failure
		// expectations folded in — the bit-identity contract depends on it.
		t.service[i] = lat + m.Scaling.At(n)
		t.expense[i] = (f.ExpectedBilledSec(et)*m.RatePerInstanceSec + m.Storage.At(p)*f.ExpectedAttempts(et)) * n
	}
	t.svcCol = quantileColumn{vals: t.service}
	return t
}

// measured reports a MeasuredPlanner's row: it has no model to compute a
// quantile column from.
func (t *DegreeTable) measured() bool { return t.et == nil }

// MaxDegree returns the table's degree range (degrees 1..MaxDegree).
func (t *DegreeTable) MaxDegree() int { return len(t.service) }

// ServiceTime returns the memoized Models.ServiceTime(c, degree).
func (t *DegreeTable) ServiceTime(degree int) float64 { return t.service[degree-1] }

// Expense returns the memoized Models.Expense(c, degree).
func (t *DegreeTable) Expense(degree int) float64 { return t.expense[degree-1] }

// ServiceTimeQuantile returns the memoized Models.ServiceTimeQuantile. On a
// MeasuredPlanner's row a quantile other than 100, 95 and 50 has no column,
// and asking for one panics, as an out-of-range degree does.
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
	if t.measured() {
		panic(fmt.Sprintf("core: no measured column at quantile %g", q))
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

// --- Grid cache --------------------------------------------------------------

// defaultTableCap bounds a Planner's table cache: sweeps revisit a modest
// set of concurrency levels, and one table is O(MaxDegree) floats per size.
const defaultTableCap = 64

// GridCache hands an entry point the GridTable it searches, for one fixed
// model stack — a GridModels, or a single Models as its one-row grid. Built
// with NewTableCache or NewGridCache it memoizes tables across concurrency
// levels in one LRU of its capacity (see lruCache in cache.go). Safe for
// concurrent use: a lookup takes one mutex and allocates nothing on a hit,
// and a miss builds outside that lock with singleflight coalescing, so each
// table builds exactly once per residency. The Models and GridModels methods
// plan through one that holds no tables at all and builds afresh on every
// call.
type GridCache struct {
	g        GridModels   // the memory grid; without sizes, the stack is the one row below
	row      Models       // the one-row stack
	failure  FailureModel // folded into the row's expectations (Request.Failure)
	invalid  error        // the stack's Validate verdict, fixed with the stack
	judged   bool         // invalid is set: false only on a GridCache no constructor built
	lru      *lruCache    // nil: nothing is kept, every lookup builds
	measured *GridTable   // MeasuredPlanner's one table; no other concurrency has one
}

// NewGridCache builds a cache for the grid. capacity ≤ 0 means the default
// (64 concurrency levels).
func NewGridCache(g GridModels, capacity int) *GridCache {
	return (&GridCache{g: g, invalid: g.Validate(), judged: true}).keeping(capacity)
}

// NewTableCache builds the cache of a single model stack: the grid cache of
// its one-row grid, validated as Models (no memory size is involved, so none
// is named in errors). capacity ≤ 0 means the default.
func NewTableCache(m Models, capacity int) *GridCache {
	return (&GridCache{row: m, invalid: m.Validate(), judged: true}).keeping(capacity)
}

func (gc *GridCache) keeping(capacity int) *GridCache {
	if capacity <= 0 {
		capacity = defaultTableCap
	}
	gc.lru = newLRUCache(capacity, gc.build)
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
	if err := checkInputs(gc.verdict(), w, c); err != nil {
		return nil, err
	}
	switch {
	case gc.measured != nil && c != gc.measured.c:
		return nil, fmt.Errorf("core: the measured columns are at concurrency %d, not %d", gc.measured.c, c)
	case gc.measured != nil:
		return gc.measured, nil
	case gc.lru == nil:
		return gc.build(c), nil
	}
	return gc.lru.get(c), nil
}

// verdict is the stack's Validate verdict: the one its constructor fixed, or,
// on a GridCache no constructor built (the zero value), its row's.
func (gc *GridCache) verdict() error {
	if !gc.judged {
		return gc.row.Validate()
	}
	return gc.invalid
}

// Builds reports how many tables the cache has constructed since creation.
// With singleflight coalescing it equals the number of distinct concurrency
// levels requested (absent evictions) no matter how many goroutines raced —
// the concurrency stress tests assert exactly that. A cache that keeps no
// tables, the zero GridCache among them, reads 0.
func (gc *GridCache) Builds() uint64 {
	if gc.lru == nil {
		return 0
	}
	return gc.lru.builds.Load()
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
// one table. The QoS bound is judged before the stack and the concurrency —
// the error order every QoS entry point has always had. The guard is written
// !(x > 0) so that NaN fails it.
func (gc *GridCache) qosPlan(c int, qosSec float64) (JointPlan, Weights, error) {
	if gc == nil {
		return JointPlan{}, Weights{}, ErrNoGrid
	}
	if !(qosSec > 0) {
		return JointPlan{}, Weights{}, fmt.Errorf("core: non-positive QoS bound %g", qosSec)
	}
	t, err := gc.Table(c)
	if err != nil {
		return JointPlan{}, Weights{}, err
	}
	w, err := qosSearchJoint(t, qosSec, qosTailQuantile, qosStep)
	if err != nil {
		return JointPlan{}, Weights{}, err
	}
	return t.planFor(w), w, nil
}

// --- Planner -----------------------------------------------------------------

// ErrNoGrid is returned by a Planner's joint entry points when the planner
// was built without a memory grid (NewPlanner instead of NewJointPlanner).
var ErrNoGrid = errors.New("core: planner has no memory grid")

// Planner is the one implementation of every planning question: each method
// fetches the GridTable for its concurrency and runs the shared search over
// it. NewPlanner and NewJointPlanner give it grid-table caches, so repeated
// calls at the same concurrency — sweeps over weights, quantiles, or
// repetitions — reuse one table; Models.Answer, Models.PlanFor,
// Models.TailServiceAt and GridModels.Answer are these same methods on a
// planner that keeps no tables, so the two agree bit for bit and differ only
// in amortization. Safe for concurrent use.
//
// Answer is the question the paper asks — the Eq. 7 plan at given weights or
// the Sec. 2.6 plan under a tail bound, over the degree or over (degree,
// memory). The other methods ask what a Request cannot: the argmin at another
// service quantile, under an instance cap, the plan-stability band, and the
// modeled tail at given weights. The degree-only methods search the one-row
// grid of the planner's Models; a planner built with NewJointPlanner also
// carries a memory-size grid, which PlanJointFor, QoSPlanJoint and Answer
// (for a request naming that grid) search, and answers the degree-only
// methods at the grid's largest (base) size.
type Planner struct {
	cache *GridCache // the one-row grid of the (base) models
	grid  *GridCache // nil unless built with NewJointPlanner
}

// NewPlanner builds a planner with the default cache capacity.
func NewPlanner(m Models) *Planner {
	return &Planner{cache: NewTableCache(m, 0)}
}

// NewJointPlanner builds a planner over a memory-size grid: the joint
// questions search every (degree, size) cell, and the degree-only ones keep
// working against the grid's largest (base) size — the conventional
// deployment the joint plans are baselined against.
func NewJointPlanner(g GridModels) (*Planner, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Planner{cache: NewTableCache(g.Base(), 0), grid: NewGridCache(g, 0)}, nil
}

// MeasuredPlanner is the planner over measured columns rather than fitted
// models: the Oracle of Figs. 8 and 15, which runs every packing degree at
// concurrency c and keeps the Eq. 7 best. Cell i of each column is packing
// degree i+1, as a degree sweep measures it: the total (q = 100), p95 and
// p50 service times and the expense. Every question is the modeled
// planner's search over these columns; a question at another concurrency or
// quantile is an error, since no model stands behind them to compute one.
// The columns must be non-empty, of one length, and finite and ≥ 0 in every
// cell.
func MeasuredPlanner(c int, total, tail, median, expense []float64) (*Planner, error) {
	if err := checkInputs(nil, nil, c); err != nil {
		return nil, err
	}
	n := len(total)
	for _, col := range [][]float64{total, tail, median, expense} {
		if n == 0 || len(col) != n {
			return nil, fmt.Errorf("core: measured columns of %d, %d, %d and %d cells: want one length ≥ 1",
				len(total), len(tail), len(median), len(expense))
		}
		for i, x := range col {
			if !stats.FiniteNonNeg(x) {
				return nil, fmt.Errorf("core: measured cell %g at degree %d is negative or not finite", x, i+1)
			}
		}
	}
	cols := slices.Concat(total, tail, median, expense) // the planner's own copy
	row := columnRow(c, cols[:n:n], cols[3*n:], map[float64]*quantileColumn{
		95: {vals: cols[n : 2*n : 2*n]},
		50: {vals: cols[2*n : 3*n : 3*n]},
	})
	return &Planner{cache: &GridCache{measured: row, judged: true}}, nil
}

// columnRow is the one-row GridTable over given cells, cell i at degree i+1:
// its total service time, expense, and any other service quantiles. It has
// no model, so it has no column but these.
func columnRow(c int, service, expense []float64, quantiles map[float64]*quantileColumn) *GridTable {
	row := &DegreeTable{service: service, expense: expense, quantiles: quantiles}
	row.svcCol.vals = service
	return &GridTable{c: c, sizes: []gridSize{{t: row}}}
}

// direct is the planner the Models methods answer through: no tables kept.
func (m Models) direct() *Planner {
	return &Planner{cache: &GridCache{row: m, invalid: m.Validate(), judged: true}}
}

// direct is the planner GridModels.Answer answers through: no tables kept,
// and, as NewJointPlanner's, a degree-only request answered at the base size.
func (g GridModels) direct() *Planner {
	invalid := g.Validate()
	var base Models
	if invalid == nil {
		base = g.Base()
	}
	return &Planner{cache: &GridCache{row: base, invalid: invalid, judged: true}, grid: &GridCache{g: g, invalid: invalid, judged: true}}
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

// OptimalDegreeForQuantile is Eq. 7 with the service objective replaced by
// the q-th percentile service time — ProPack "predicts different packing
// degrees that jointly minimize total, tail, and median service times"
// (Sec. 3); q=100 is the total, 95 the tail, 50 the median.
func (pl *Planner) OptimalDegreeForQuantile(c int, q float64, w Weights) (int, error) {
	t, err := pl.cache.table(c, &w)
	if err == nil {
		err = t.checkQuantile(q)
	}
	if err != nil {
		return 0, err
	}
	_, deg := t.argminJoint(q, 1, w)
	return deg, nil
}

// OptimalDegreeConstrained is Eq. 7 restricted to packing degrees whose
// instance count stays within maxInstances — planning against an
// account-level concurrency limit so the burst never throttles.
// maxInstances ≤ 0 means unconstrained. It returns an error if even the
// maximum degree spawns too many instances.
func (pl *Planner) OptimalDegreeConstrained(c int, w Weights, maxInstances int) (int, error) {
	t, err := pl.cache.table(c, &w)
	if err != nil {
		return 0, err
	}
	return t.constrainedDegree(w, maxInstances)
}

// PlanFor is the cached Models.PlanFor: Answer's degree-only weighted plan
// without the Request.
func (pl *Planner) PlanFor(c int, w Weights) (Plan, error) {
	jp, err := pl.cache.planFor(c, w)
	return jp.Plan, err
}

// degreeRangeTol is the plan-stability band's regret tolerance: 2%.
const degreeRangeTol = 0.02

// DegreeRange reports the contiguous range of packing degrees around the
// optimum whose Eq. 7 weighted regret stays within 2% of the best — the
// "plan stability" band. A wide band means the choice is forgiving; a
// narrow one means the degree matters. The optimum is always inside the
// returned range.
func (pl *Planner) DegreeRange(c int, w Weights) (lo, hi int, err error) {
	t, err := pl.cache.table(c, &w)
	if err != nil {
		return 0, 0, err
	}
	lo, hi = t.degreeRange(w)
	return lo, hi, nil
}

// TailServiceAt is the cached Models.TailServiceAt.
func (pl *Planner) TailServiceAt(c int, w Weights, tailQuantile float64) (float64, error) {
	t, err := pl.cache.table(c, &w)
	if err == nil {
		err = t.checkQuantile(tailQuantile)
	}
	if err != nil {
		return 0, err
	}
	si, deg := t.argminJoint(100, 1, w)
	return t.sizes[si].t.quantile(tailQuantile).vals[deg-1], nil
}

// QoSPlan is Eq. 9's plan: the packing degree that jointly optimizes service
// time and expense at the smallest service-time weight W_S whose plan keeps
// the modeled tail service time within qosSec, and that weight. (Eq. 9's
// literal argmin over TS would always return W_S = 1; the paper's own use —
// W_S = 0.65 for Xapian rather than 1 — shows the intended reading is the
// minimal weight that meets the bound.) The weight search and the plan share
// one table. opts carries no setting (QoSOptions).
func (pl *Planner) QoSPlan(c int, qosSec float64, opts QoSOptions) (Plan, Weights, error) {
	jp, w, err := pl.cache.qosPlan(c, qosSec)
	return jp.Plan, w, err
}

// PlanJointFor is the joint Eq. 7 recommendation: the (degree, memory size)
// cell minimizing the weighted regret sum, with the Eqs. 5–6 baselines taken
// over the whole grid.
func (pl *Planner) PlanJointFor(c int, w Weights) (JointPlan, error) {
	return pl.grid.planFor(c, w)
}

// QoSPlanJoint is QoSPlan over the grid: the joint plan at the smallest W_S
// whose joint recommendation keeps the modeled tail within qosSec.
func (pl *Planner) QoSPlanJoint(c int, qosSec float64, opts QoSOptions) (JointPlan, Weights, error) {
	return pl.grid.qosPlan(c, qosSec)
}
