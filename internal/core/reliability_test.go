package core

import (
	"math"
	"testing"
)

func reliabilityFixtureModels() Models {
	return Models{
		ET:                 ETModel{MfuncGB: 0.25, Alpha: 0.35, Intercept: 4.0},
		Scaling:            ScalingModel{B1: 2e-5, B2: 0.01, B3: 0},
		RatePerInstanceSec: 1.6667e-4,
		MaxDegree:          30,
	}
}

func TestFailureModelZeroIsIdentity(t *testing.T) {
	var f FailureModel
	for _, T := range []float64{0.5, 10, 300} {
		if f.ExpectedAttempts(T) != 1 {
			t.Fatal("zero model should expect exactly 1 attempt")
		}
		if f.ExpectedBilledSec(T) != T || f.ExpectedLatencySec(T) != T {
			t.Fatal("zero model must return T exactly")
		}
	}
}

func TestFailureModelExpectations(t *testing.T) {
	f := FailureModel{CrashRate: 0.01, RetryDelaySec: 5}
	T := 100.0 // λT = 1
	if got, want := f.ExpectedAttempts(T), math.E; math.Abs(got-want) > 1e-12 {
		t.Fatalf("attempts = %g, want e", got)
	}
	if got, want := f.ExpectedBilledSec(T), (math.E-1)/0.01; math.Abs(got-want) > 1e-9 {
		t.Fatalf("billed = %g, want %g", got, want)
	}
	// Latency = billed + failures·delay.
	wantLat := (math.E-1)/0.01 + (math.E-1)*5
	if got := f.ExpectedLatencySec(T); math.Abs(got-wantLat) > 1e-9 {
		t.Fatalf("latency = %g, want %g", got, wantLat)
	}
	// Billed time is continuous at λ→0.
	tiny := FailureModel{CrashRate: 1e-12}
	if got := tiny.ExpectedBilledSec(50); math.Abs(got-50) > 1e-3 {
		t.Fatalf("billed not continuous at λ→0: %g", got)
	}
}

func TestFailureModelMonotoneInRateAndDuration(t *testing.T) {
	base := FailureModel{CrashRate: 0.005, RetryDelaySec: 2}
	if !(base.ExpectedBilledSec(200) > base.ExpectedBilledSec(100)) {
		t.Fatal("billed time must grow with duration")
	}
	hot := FailureModel{CrashRate: 0.02, RetryDelaySec: 2}
	if !(hot.ExpectedBilledSec(100) > base.ExpectedBilledSec(100)) {
		t.Fatal("billed time must grow with crash rate")
	}
	// Superlinearity: the degree-P penalty — doubling T more than doubles
	// the billed time, which is what pushes the optimizer to lower degrees.
	if !(base.ExpectedBilledSec(200) > 2*base.ExpectedBilledSec(100)) {
		t.Fatal("billed time must be superlinear in duration")
	}
}

// reliableServiceTime and reliableExpense are the failure-folded predictors
// evaluated straight off the Models ones: the expected total service time
// (expected execution latency under crashes plus the scaling time of the
// fleet) and the expected expense (every attempt's compute billed, the
// non-compute term once per expected attempt) at concurrency c and packing
// degree under f. They are the oracle a failure-folded row must reproduce
// bit for bit.
func reliableServiceTime(m Models, f FailureModel, c, degree int) float64 {
	return f.ExpectedLatencySec(m.ET.At(degree)) + m.Scaling.At(instances(c, degree))
}

func reliableExpense(m Models, f FailureModel, c, degree int) float64 {
	n := instances(c, degree)
	T := m.ET.At(degree)
	return (f.ExpectedBilledSec(T)*m.RatePerInstanceSec + m.Storage.At(degree)*f.ExpectedAttempts(T)) * n
}

// naiveReliablePlan is the Eq. 7 plan over the oracle predictors, scanned
// degree by degree as naiveArgminRegret scans the failure-blind ones.
func naiveReliablePlan(m Models, f FailureModel, c int, w Weights) Plan {
	bestS, bestE := math.Inf(1), math.Inf(1)
	for d := 1; d <= m.MaxDegree; d++ {
		bestS = math.Min(bestS, reliableServiceTime(m, f, c, d))
		bestE = math.Min(bestE, reliableExpense(m, f, c, d))
	}
	best, bestVal := 0, math.Inf(1)
	for d := 1; d <= m.MaxDegree; d++ {
		dS := (reliableServiceTime(m, f, c, d) - bestS) / bestS
		dE := (reliableExpense(m, f, c, d) - bestE) / bestE
		if v := w.Service*dS + w.Expense*dE; v < bestVal {
			best, bestVal = d, v
		}
	}
	return Plan{
		Concurrency:         c,
		Degree:              best,
		Weights:             w,
		PredictedServiceSec: reliableServiceTime(m, f, c, best),
		PredictedExpenseUSD: reliableExpense(m, f, c, best),
		BaselineServiceSec:  reliableServiceTime(m, f, c, 1),
		BaselineExpenseUSD:  reliableExpense(m, f, c, 1),
	}
}

// TestReliableModelsZeroFailureAgreesExactly: the failure-folded row is the
// oracle's, bit for bit, at every crash rate; Answer's failure-aware plan is
// the naive plan over it; and with a zero failure model both reduce to the
// failure-blind predictors and plan exactly.
func TestReliableModelsZeroFailureAgreesExactly(t *testing.T) {
	m := reliabilityFixtureModels()
	const c = 2000
	for _, f := range []FailureModel{{}, {CrashRate: 0.002, RetryDelaySec: 5}, {CrashRate: 0.05, RetryDelaySec: 1}} {
		row := newDegreeTable(m, f, c)
		for p := 1; p <= m.MaxDegree; p++ {
			if !f64eq(row.ServiceTime(p), reliableServiceTime(m, f, c, p)) || !f64eq(row.Expense(p), reliableExpense(m, f, c, p)) {
				t.Fatalf("λ=%g: folded row diverged from the oracle at degree %d", f.CrashRate, p)
			}
			if !f.Enabled() && (m.ServiceTime(c, p) != reliableServiceTime(m, f, c, p) || m.Expense(c, p) != reliableExpense(m, f, c, p)) {
				t.Fatalf("zero-failure predictions diverged at degree %d", p)
			}
		}
		for _, w := range []Weights{Balanced(), ServiceOnly(), ExpenseOnly()} {
			rel, err := m.Answer(Request{C: c, Weights: w, Failure: f})
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveReliablePlan(m, f, c, w); !planEq(rel.Plan, want) {
				t.Fatalf("λ=%g: reliable plan diverged from the oracle:\nAnswer %+v\noracle %+v", f.CrashRate, rel.Plan, want)
			}
			if f.Enabled() {
				continue
			}
			blind, err := m.PlanFor(c, w)
			if err != nil {
				t.Fatal(err)
			}
			if blind != rel.Plan {
				t.Fatalf("zero-failure reliable plan diverged:\nblind %+v\nrel   %+v", blind, rel.Plan)
			}
		}
	}
}

func TestReliablePlanningShiftsToLowerDegrees(t *testing.T) {
	m := reliabilityFixtureModels()
	const c = 2000
	degree := func(f FailureModel) int {
		t.Helper()
		plan, err := m.Answer(Request{C: c, Weights: Balanced(), Failure: f})
		if err != nil {
			t.Fatal(err)
		}
		return plan.Degree
	}
	blind := degree(FailureModel{})
	prev := blind
	for _, rate := range []float64{0.002, 0.01, 0.05} {
		deg := degree(FailureModel{CrashRate: rate, RetryDelaySec: 5})
		if deg > prev {
			t.Fatalf("degree rose with crash rate: %d → %d at λ=%g", prev, deg, rate)
		}
		prev = deg
	}
	if deg := degree(FailureModel{CrashRate: 0.05, RetryDelaySec: 5}); deg >= blind {
		t.Fatalf("high crash rate should force a strictly lower degree: blind %d, reliable %d", blind, deg)
	}
}

func TestFailureModelValidate(t *testing.T) {
	if (FailureModel{CrashRate: -1}).Validate() == nil {
		t.Fatal("negative crash rate accepted")
	}
	if (FailureModel{RetryDelaySec: -1}).Validate() == nil {
		t.Fatal("negative retry delay accepted")
	}
	if (FailureModel{CrashRate: 0.1, RetryDelaySec: 3}).Validate() != nil {
		t.Fatal("good model rejected")
	}
}
