package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestWeightsValidate(t *testing.T) {
	for _, w := range []Weights{Balanced(), ServiceOnly(), ExpenseOnly(), {0.65, 0.35}} {
		if err := w.Validate(); err != nil {
			t.Fatalf("%+v: %v", w, err)
		}
	}
	bads := []Weights{{0.5, 0.6}, {-0.1, 1.1}, {1.2, -0.2}, {0, 0}}
	for _, w := range bads {
		if w.Validate() == nil {
			t.Fatalf("bad weights accepted: %+v", w)
		}
	}
}

// degreeFor is the Eq. 7 packing degree of m's plan at c.
func degreeFor(t *testing.T, m Models, c int, w Weights) int {
	t.Helper()
	plan, err := m.PlanFor(c, w)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Degree
}

func TestOptimalDegreeBruteForceAgreement(t *testing.T) {
	m := synthModels()
	for _, c := range []int{500, 1000, 2000, 5000} {
		// Brute-force Eq. 3 and Eq. 4 directly.
		bruteS, bruteSVal := 1, math.Inf(1)
		bruteE, bruteEVal := 1, math.Inf(1)
		for p := 1; p <= m.MaxDegree; p++ {
			if s := m.ServiceTime(c, p); s < bruteSVal {
				bruteS, bruteSVal = p, s
			}
			if e := m.Expense(c, p); e < bruteEVal {
				bruteE, bruteEVal = p, e
			}
		}
		if got := degreeFor(t, m, c, ServiceOnly()); got != bruteS {
			t.Fatalf("C=%d: service degree %d, brute force %d", c, got, bruteS)
		}
		if got := degreeFor(t, m, c, ExpenseOnly()); got != bruteE {
			t.Fatalf("C=%d: expense degree %d, brute force %d", c, got, bruteE)
		}
	}
}

func TestOptimalDegreeIncreasesWithConcurrency(t *testing.T) {
	// Paper Fig. 8 observation (1): higher concurrency → higher packing
	// degree, because scaling time grows faster than packing cost.
	m := synthModels()
	prev := 0
	for _, c := range []int{500, 1000, 2000, 5000} {
		deg := degreeFor(t, m, c, Balanced())
		if deg < prev {
			t.Fatalf("optimal degree decreased with concurrency: %d at C=%d after %d", deg, c, prev)
		}
		prev = deg
	}
	if prev <= 1 {
		t.Fatal("optimal degree at C=5000 should exceed 1")
	}
}

func TestJointDegreeBetweenSingleObjectiveOptima(t *testing.T) {
	// Paper Fig. 15 observation: the joint optimum falls between the
	// service-only and expense-only optima.
	m := synthModels()
	c := 5000
	ds := degreeFor(t, m, c, ServiceOnly())
	de := degreeFor(t, m, c, ExpenseOnly())
	dj := degreeFor(t, m, c, Balanced())
	lo, hi := ds, de
	if lo > hi {
		lo, hi = hi, lo
	}
	if dj < lo || dj > hi {
		t.Fatalf("joint degree %d outside [%d, %d]", dj, lo, hi)
	}
}

// TestWeightExtremesMatchSingleObjectives: Eqs. 3 and 4 are Eq. 7 at the
// extreme weights. PlanFor and Answer at ServiceOnly() and ExpenseOnly()
// must pick the cell the naive single-objective scan picks
// (naiveArgminColumn) — the degree-only entry points on each size's models,
// the joint ones over the whole grid — on the paper fixture, the stress
// fixtures, and random multi-size grids. Fig 15's ProPack columns are these
// plans.
//
// The identity needs finite cells on the objective that counts. A zero
// weight drops its term (Weights.regret), so ServiceOnly is Eq. 3 on every
// grid whose service cells are finite, even where expense is NaN
// (randSizeModels' degenerate rows), and ExpenseOnly is Eq. 4 wherever the
// expense cells are finite — also at an expense baseline of 0, where the
// regret is fracRegret's b → 0⁺ limit. Random grids with a non-finite
// service cell are counted, not compared; Fig 15's fitted stacks are not
// degenerate.
func TestWeightExtremesMatchSingleObjectives(t *testing.T) {
	type extreme struct {
		w   Weights
		col func(m Models, c, degree int) float64
	}
	extremes := []extreme{{ServiceOnly(), Models.ServiceTime}, {ExpenseOnly(), Models.Expense}}
	check := func(name string, g GridModels, c int, extremes []extreme) {
		t.Helper()
		jpl, err := NewJointPlanner(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, x := range extremes {
			wantDeg, wantMB := naiveArgminColumn(g, c, x.col)
			joint, err := jpl.PlanJointFor(c, x.w)
			if err != nil || joint.Degree != wantDeg || joint.MemMB != wantMB {
				t.Fatalf("%s C=%d W=%+v: PlanJointFor=(%d, %g MB) (%v), naive=(%d, %g MB)", name, c, x.w, joint.Degree, joint.MemMB, err, wantDeg, wantMB)
			}
			answer, err := g.Answer(Request{C: c, Weights: x.w, SizesMB: g.MemSizesMB()})
			if err != nil || !jointPlanEq(answer, joint) {
				t.Fatalf("%s C=%d W=%+v: GridModels.Answer=%+v (%v), PlanJointFor=%+v", name, c, x.w, answer, err, joint)
			}
			for _, s := range g.Sizes {
				want, _ := naiveArgminColumn(oneSize(s.Models), c, x.col)
				plan, err := s.Models.PlanFor(c, x.w)
				if err != nil || plan.Degree != want {
					t.Fatalf("%s %g MB C=%d W=%+v: PlanFor=%d (%v), naive=%d", name, s.MemMB, c, x.w, plan.Degree, err, want)
				}
				answer, err := s.Models.Answer(Request{C: c, Weights: x.w})
				if err != nil || !planEq(answer.Plan, plan) {
					t.Fatalf("%s %g MB C=%d W=%+v: Models.Answer=%+v (%v), PlanFor=%+v", name, s.MemMB, c, x.w, answer.Plan, err, plan)
				}
			}
		}
	}
	for _, c := range []int{1, 500, 3000, 20000} {
		check("synthModels", oneSize(synthModels()), c, extremes)
		check("stressModels", oneSize(stressModels()), c, extremes)
		check("stressGrid", stressGrid(), c, extremes)
	}
	r := rand.New(rand.NewSource(43))
	serviceOnly, zeroExpense, degenerate := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		g := randGrid(r)
		c := 1 + r.Intn(20000)
		name := fmt.Sprintf("trial %d", trial)
		switch {
		case !finiteCells(g, c, Models.ServiceTime):
			degenerate++
		case !finiteCells(g, c, Models.Expense):
			serviceOnly++
			check(name, g, c, extremes[:1])
		default:
			if zeroExpenseCell(g, c) {
				zeroExpense++
			}
			check(name, g, c, extremes)
		}
	}
	t.Logf("of 300 random grids: %d compared at ServiceOnly only, %d at both over a zero expense cell, %d with a non-finite service cell",
		serviceOnly, zeroExpense, degenerate)
	if zeroExpense == 0 || serviceOnly+degenerate > 150 {
		t.Fatalf("%d of 300 random grids over a zero expense cell, %d not compared at ExpenseOnly: the generator no longer mixes both kinds",
			zeroExpense, serviceOnly+degenerate)
	}
}

// finiteCells reports whether col is finite at every cell of g at c.
func finiteCells(g GridModels, c int, col func(m Models, c, degree int) float64) bool {
	for _, s := range g.Sizes {
		for d := 1; d <= s.Models.MaxDegree; d++ {
			if v := col(s.Models, c, d); math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// TestZeroPriceServiceOnlyIsEq3: a platform whose prices are all 0 passes
// Config.Validate and fits an expense of 0 at every degree, so Eq. 6's
// baseline is 0. ServiceOnly must plan Eq. 3's argmin — the zero expense
// weight drops that term — rather than fall back to degree 1.
func TestZeroPriceServiceOnlyIsEq3(t *testing.T) {
	m := zeroPriceModels(t)
	const c = 5000
	if e := m.Expense(c, 1); e != 0 {
		t.Fatalf("zero-price stack fits expense %g at degree 1, want 0", e)
	}
	want, _ := naiveArgminColumn(oneSize(m), c, Models.ServiceTime)
	if want == 1 {
		t.Fatal("Eq. 3's argmin is degree 1: the fixture no longer tells the fallback apart")
	}
	plan, err := m.PlanFor(c, ServiceOnly())
	if err != nil || plan.Degree != want {
		t.Fatalf("PlanFor(ServiceOnly) = degree %d (%v), Eq. 3 argmin %d (%.1f s vs %.1f s)",
			plan.Degree, err, want, m.ServiceTime(c, plan.Degree), m.ServiceTime(c, want))
	}
	answer, err := NewPlanner(m).Answer(Request{C: c, Weights: ServiceOnly()})
	if err != nil || answer.Degree != want {
		t.Fatalf("Planner.Answer(ServiceOnly) = degree %d (%v), Eq. 3 argmin %d", answer.Degree, err, want)
	}
}

// TestZeroPriceEq7IsEq3: on the same stack every expense is 0, so each
// cell's Eq. 6 regret is fracRegret's limit 0 and Eq. 7 reduces to Eq. 3 at
// any positive service weight. ExpenseOnly is Eq. 4, every cell tied at 0,
// so its first-wins argmin is degree 1. Before the limit every regret was
// 0/0 and all three fell back to degree 1.
func TestZeroPriceEq7IsEq3(t *testing.T) {
	m := zeroPriceModels(t)
	const c = 5000
	eq3, _ := naiveArgminColumn(oneSize(m), c, Models.ServiceTime)
	eq4, _ := naiveArgminColumn(oneSize(m), c, Models.Expense)
	if eq3 != 10 || eq4 != 1 {
		t.Fatalf("fixture moved: Eq. 3 argmin %d, Eq. 4 argmin %d, want 10 and 1", eq3, eq4)
	}
	pl := NewPlanner(m)
	for _, tc := range []struct {
		w    Weights
		want int
	}{{Balanced(), eq3}, {Weights{Service: 0.9, Expense: 0.1}, eq3}, {ExpenseOnly(), eq4}} {
		plan, err := m.PlanFor(c, tc.w)
		if err != nil || plan.Degree != tc.want {
			t.Fatalf("PlanFor(%+v) = degree %d (%v), want %d", tc.w, plan.Degree, err, tc.want)
		}
		answer, err := pl.Answer(Request{C: c, Weights: tc.w})
		if err != nil || answer.Degree != tc.want {
			t.Fatalf("Planner.Answer(%+v) = degree %d (%v), want %d", tc.w, answer.Degree, err, tc.want)
		}
	}
}

// zeroPriceModels fits Video on AWS Lambda with every price set to 0.
func zeroPriceModels(t *testing.T) Models {
	t.Helper()
	cfg := platform.AWSLambda()
	cfg.GBSecondUSD, cfg.PerRequestUSD, cfg.Storage = 0, 0, storage.Pricing{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := workload.Video{}.Demand()
	m, _, _, _, err := BuildModels(&SimMeasurer{Config: cfg, Demand: d, Seed: 1}, ProfileOptionsFor(cfg, d))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestZeroPriceDegreeRange: on the same zero-price stack the ServiceOnly
// stability band drops the expense term as the plan does, so it spans
// every degree within degreeRangeTol of Eq. 3's optimum — 8 (1.65 %) to 12
// (1.72 %) around 10 — instead of collapsing to the optimum alone.
func TestZeroPriceDegreeRange(t *testing.T) {
	m := zeroPriceModels(t)
	const c = 5000
	lo, hi, err := NewPlanner(m).DegreeRange(c, ServiceOnly())
	if err != nil || lo != 8 || hi != 12 {
		t.Fatalf("DegreeRange(ServiceOnly) = %d..%d (%v), want 8..12", lo, hi, err)
	}
	plan, err := m.PlanFor(c, ServiceOnly())
	if err != nil || plan.Degree != 10 {
		t.Fatalf("PlanFor(ServiceOnly) = degree %d (%v), want 10", plan.Degree, err)
	}
	best := m.ServiceTime(c, plan.Degree)
	for _, p := range []int{lo, hi} {
		if regret := (m.ServiceTime(c, p) - best) / best; !(regret > 0 && regret <= degreeRangeTol) {
			t.Fatalf("degree %d: service regret %.4f, want within (0, %g]", p, regret, degreeRangeTol)
		}
	}
}

// zeroExpenseCell reports whether some cell of g costs 0 at c: a size whose
// Eq. 6 baseline is 0, so its expense regrets compare only through
// fracRegret's b → 0⁺ limit.
func zeroExpenseCell(g GridModels, c int) bool {
	for _, s := range g.Sizes {
		for d := 1; d <= s.Models.MaxDegree; d++ {
			if s.Models.Expense(c, d) == 0 {
				return true
			}
		}
	}
	return false
}

// oneSize is m as a one-size grid.
func oneSize(m Models) GridModels {
	return GridModels{Sizes: []SizeModels{{MemMB: 1024, Models: m}}}
}

func TestOptimalDegreeErrors(t *testing.T) {
	m := synthModels()
	if _, err := m.PlanFor(0, Balanced()); err == nil {
		t.Fatal("C=0 accepted")
	}
	if _, err := m.PlanFor(100, Weights{0.9, 0.9}); err == nil {
		t.Fatal("bad weights accepted")
	}
	bad := m
	bad.MaxDegree = 0
	if _, err := bad.PlanFor(100, Balanced()); err == nil {
		t.Fatal("invalid models accepted")
	}
}

func TestPlanFor(t *testing.T) {
	m := synthModels()
	plan, err := m.PlanFor(5000, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degree < 1 || plan.Degree > m.MaxDegree {
		t.Fatalf("degree %d out of range", plan.Degree)
	}
	if plan.PredictedServiceSec >= plan.BaselineServiceSec {
		t.Fatal("plan should beat the baseline on service time at high concurrency")
	}
	if plan.PredictedExpenseUSD >= plan.BaselineExpenseUSD {
		t.Fatal("plan should beat the baseline on expense at high concurrency")
	}
}

func TestQoSWeightSearch(t *testing.T) {
	m := synthModels()
	c := 5000
	// An achievable bound: slightly above the best possible tail.
	bestTail, err := m.TailServiceAt(c, ServiceOnly(), 95)
	if err != nil {
		t.Fatal(err)
	}
	loosest, err := m.TailServiceAt(c, ExpenseOnly(), 95)
	if err != nil {
		t.Fatal(err)
	}
	if bestTail > loosest {
		t.Fatalf("service-only tail %g should not exceed expense-only tail %g", bestTail, loosest)
	}
	bound := bestTail*0.3 + loosest*0.7
	plan, err := m.Answer(Request{C: c, Weights: Balanced(), QoSSec: bound})
	if err != nil {
		t.Fatal(err)
	}
	w := plan.Weights
	ts, err := m.TailServiceAt(c, w, 95)
	if err != nil {
		t.Fatal(err)
	}
	if ts > bound {
		t.Fatalf("selected weights violate the bound: %g > %g", ts, bound)
	}
	// Minimality: a step lower on W_S must violate the bound (unless W_S=0).
	if w.Service > 0 {
		lower := Weights{Service: w.Service - 0.05, Expense: 1 - (w.Service - 0.05)}
		if lower.Service >= 0 {
			ts2, err := m.TailServiceAt(c, lower, 95)
			if err != nil {
				t.Fatal(err)
			}
			if ts2 <= bound {
				t.Fatalf("W_S=%g not minimal: %g also satisfies bound %g", w.Service, ts2, bound)
			}
		}
	}
}

func TestQoSInfeasible(t *testing.T) {
	m := synthModels()
	_, err := m.Answer(Request{C: 5000, Weights: Balanced(), QoSSec: 1e-6})
	if !errors.Is(err, ErrQoSInfeasible) {
		t.Fatalf("impossible bound: %v, want ErrQoSInfeasible", err)
	}
}

func TestQoSValidation(t *testing.T) {
	pl := NewPlanner(synthModels())
	if _, _, err := pl.QoSPlan(100, 0, QoSOptions{}); err == nil {
		t.Fatal("zero bound accepted")
	}
}

func TestQoSPlanMeetsBound(t *testing.T) {
	m := synthModels()
	c := 2000
	loosest, err := m.TailServiceAt(c, ExpenseOnly(), 95)
	if err != nil {
		t.Fatal(err)
	}
	plan, w, err := NewPlanner(m).QoSPlan(c, loosest, QoSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Service != 0 {
		t.Fatalf("loosest bound should need no service weight, got %g", w.Service)
	}
	if want := degreeFor(t, m, c, ExpenseOnly()); plan.Degree != want {
		t.Fatalf("plan degree %d, want expense optimum %d", plan.Degree, want)
	}
}

func TestOptimalDegreeConstrained(t *testing.T) {
	m := synthModels()
	pl := NewPlanner(m)
	const c = 5000
	unconstrained := degreeFor(t, m, c, Balanced())
	capped := func(maxInstances int, w Weights) (int, error) {
		r := Request{C: c, Weights: w, MaxInstances: maxInstances}
		jp, err := pl.Answer(r)
		if err == nil {
			err = checkAnswer(pl, r, jp)
		}
		return jp.Degree, err
	}
	// No limit (or a generous one) reproduces the unconstrained choice.
	got, err := capped(0, Balanced())
	if err != nil || got != unconstrained {
		t.Fatalf("unlimited: got %d (%v), want %d", got, err, unconstrained)
	}
	got, err = capped(c, Balanced())
	if err != nil || got != unconstrained {
		t.Fatalf("generous limit: got %d (%v), want %d", got, err, unconstrained)
	}
	// A tight limit forces a deeper degree that respects it.
	const limit = 150
	got, err = capped(limit, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	if instances := (c + got - 1) / got; instances > limit {
		t.Fatalf("degree %d spawns %d instances > limit %d", got, instances, limit)
	}
	if got <= unconstrained {
		t.Fatalf("tight limit should force deeper packing: %d vs %d", got, unconstrained)
	}
	// An impossible limit errors.
	if _, err := capped(10, Balanced()); err == nil {
		t.Fatal("infeasible limit accepted")
	}
	if _, err := capped(limit, Weights{2, -1}); err == nil {
		t.Fatal("bad weights accepted")
	}
}

// TestMaxIntConcurrency: at c = MaxInt, where (c+P−1)/P overflows, every
// degree spawns ⌈c/P⌉ instances at a non-negative expense, the plan's
// expense is non-negative, its answers under no cap and a cap that fits meet
// checkAnswer, and two instances cannot hold c functions.
func TestMaxIntConcurrency(t *testing.T) {
	m := synthModels()
	const c = math.MaxInt
	for p := 1; p <= m.MaxDegree; p++ {
		want := c/p + min(c%p, 1)
		if got := m.Expense(c, p); instances(c, p) != float64(want) || !(got >= 0) {
			t.Errorf("degree %d: %v instances, want %d; expense %v", p, instances(c, p), want, got)
		}
	}
	pl := NewPlanner(m)
	if plan, err := pl.PlanFor(c, Balanced()); err != nil || !(plan.PredictedExpenseUSD >= 0) {
		t.Errorf("plan at MaxInt: %+v (%v)", plan, err)
	}
	for _, maxInst := range []int{0, c / 30} {
		r := Request{C: c, Weights: Balanced(), MaxInstances: maxInst}
		jp, err := pl.Answer(r)
		if err == nil {
			err = checkAnswer(pl, r, jp)
		}
		if err != nil {
			t.Errorf("cap %d at MaxInt: %+v: %v", maxInst, jp, err)
		}
	}
	if jp, err := pl.Answer(Request{C: c, Weights: Balanced(), MaxInstances: 2}); err == nil {
		t.Errorf("degree %d fits %d functions in 2 instances", jp.Degree, c)
	}
}

func TestDegreeRangeStability(t *testing.T) {
	m := synthModels()
	pl := NewPlanner(m)
	const c = 5000
	best := degreeFor(t, m, c, Balanced())
	lo, hi, err := pl.DegreeRange(c, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	if best < lo || best > hi {
		t.Fatalf("optimum %d outside band [%d, %d]", best, lo, hi)
	}
	if lo < 1 || hi > m.MaxDegree {
		t.Fatalf("band [%d, %d] out of bounds", lo, hi)
	}
}
