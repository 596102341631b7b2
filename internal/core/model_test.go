package core

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (±%g)", msg, got, want, tol)
	}
}

// synthModels returns hand-built models with known behaviour: ET grows
// gently with degree, scaling is strongly quadratic.
func synthModels() Models {
	return Models{
		ET:                 ETModel{MfuncGB: 0.25, Alpha: 0.12, Intercept: math.Log(100) - 0.25*0.12},
		Scaling:            ScalingModel{B1: 2e-5, B2: 0.01, B3: 0.5},
		RatePerInstanceSec: 1.6667e-4,
		MaxDegree:          40,
	}
}

func TestETModelAt(t *testing.T) {
	m := synthModels().ET
	approx(t, m.At(1), 100, 1e-9, "ET(1) calibrated to 100")
	if m.At(10) <= m.At(1) {
		t.Fatal("ET not increasing")
	}
}

func TestFitETRecoversKnownCurve(t *testing.T) {
	truth := ETModel{MfuncGB: 0.5, Alpha: 0.2, Intercept: 1.0}
	var samples []ETSample
	for d := 1; d <= 15; d += 2 {
		samples = append(samples, ETSample{Degree: d, ETSec: truth.At(d)})
	}
	got, err := FitET(samples, 0.5, FitETOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, got.Alpha, truth.Alpha, 1e-9, "alpha")
	approx(t, got.Intercept, truth.Intercept, 1e-9, "intercept")

	// Paper-exact form on origin-consistent data.
	truth0 := ETModel{MfuncGB: 0.5, Alpha: 0.3}
	samples = samples[:0]
	for d := 1; d <= 9; d += 2 {
		samples = append(samples, ETSample{Degree: d, ETSec: truth0.At(d)})
	}
	got0, err := FitET(samples, 0.5, FitETOptions{PaperExact: true})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, got0.Alpha, 0.3, 1e-9, "paper-exact alpha")
	if got0.Intercept != 0 {
		t.Fatal("paper-exact fit must have zero intercept")
	}
}

func TestFitETErrors(t *testing.T) {
	s := []ETSample{{Degree: 1, ETSec: 10}, {Degree: 3, ETSec: 12}}
	if _, err := FitET(s, 0, FitETOptions{}); err == nil {
		t.Fatal("zero Mfunc accepted")
	}
	if _, err := FitET([]ETSample{{Degree: 0, ETSec: 1}}, 1, FitETOptions{}); err == nil {
		t.Fatal("degree-0 sample accepted")
	}
	if _, err := FitET([]ETSample{{Degree: 1, ETSec: -1}, {Degree: 2, ETSec: 1}}, 1, FitETOptions{}); err == nil {
		t.Fatal("negative ET accepted")
	}
}

func TestFitScalingRecoversKnownPolynomial(t *testing.T) {
	truth := ScalingModel{B1: 3e-5, B2: 0.02, B3: 1.5}
	var samples []ScalingSample
	for _, c := range DefaultScalingProbes() {
		cc := float64(c)
		samples = append(samples, ScalingSample{Instances: c, ScalingSec: truth.B1*cc*cc + truth.B2*cc - truth.B3})
	}
	got, err := FitScaling(samples)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, got.B1, truth.B1, 1e-12, "β1")
	approx(t, got.B2, truth.B2, 1e-9, "β2")
	approx(t, got.B3, truth.B3, 1e-6, "β3")
}

func TestScalingModelClampsNegative(t *testing.T) {
	m := ScalingModel{B1: 1e-5, B2: 0.001, B3: 10}
	if got := m.At(1); got != 0 {
		t.Fatalf("tiny concurrency should clamp to 0, got %g", got)
	}
	if m.At(5000) <= 0 {
		t.Fatal("large concurrency should be positive")
	}
}

func TestFitScalingErrors(t *testing.T) {
	if _, err := FitScaling([]ScalingSample{{Instances: 0, ScalingSec: 1}}); err == nil {
		t.Fatal("zero-instance sample accepted")
	}
	if _, err := FitScaling([]ScalingSample{{Instances: 1, ScalingSec: 1}, {Instances: 2, ScalingSec: 2}}); err == nil {
		t.Fatal("underdetermined quadratic accepted")
	}
}

func TestServiceTimeDecomposition(t *testing.T) {
	m := synthModels()
	c := 5000
	for _, deg := range []int{1, 5, 20} {
		want := m.ET.At(deg) + m.Scaling.At(float64((c+deg-1)/deg))
		approx(t, m.ServiceTime(c, deg), want, 1e-9, "Eq. 3 argument")
	}
	// Quantile model: q=100 reduces to total; lower quantiles are smaller.
	if m.ServiceTimeQuantile(c, 4, 100) != m.ServiceTime(c, 4) {
		t.Fatal("q=100 should equal total service time")
	}
	if m.ServiceTimeQuantile(c, 4, 50) >= m.ServiceTimeQuantile(c, 4, 95) {
		t.Fatal("median model should be below tail model")
	}
}

func TestExpenseFormula(t *testing.T) {
	m := synthModels()
	want := m.ET.At(8) * m.RatePerInstanceSec * 625
	approx(t, m.Expense(5000, 8), want, 1e-9, "Eq. 4 argument")
}

func TestModelsValidate(t *testing.T) {
	good := synthModels()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.MaxDegree = 0
	if bad.Validate() == nil {
		t.Fatal("MaxDegree 0 accepted")
	}
	bad = good
	bad.RatePerInstanceSec = -1
	if bad.Validate() == nil {
		t.Fatal("negative rate accepted")
	}
	bad = good
	bad.ET.MfuncGB = 0
	if bad.Validate() == nil {
		t.Fatal("missing Mfunc accepted")
	}
}

// Property: fitting Eq. 1 to data generated by Eq. 1 recovers it for any
// sane α, and predictions interpolate correctly at the skipped degrees.
func TestFitETRoundTripProperty(t *testing.T) {
	f := func(a uint8) bool {
		alpha := 0.02 + float64(a)/1024 // (0.02, ~0.27)
		truth := ETModel{MfuncGB: 0.7, Alpha: alpha, Intercept: 2}
		var samples []ETSample
		for _, d := range SampleDegrees(21) {
			samples = append(samples, ETSample{Degree: d, ETSec: truth.At(d)})
		}
		got, err := FitET(samples, 0.7, FitETOptions{})
		if err != nil {
			return false
		}
		for d := 1; d <= 21; d++ { // includes skipped even degrees
			if math.Abs(got.At(d)-truth.At(d)) > 1e-6*truth.At(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random sane model parameters, the optimal degree is within
// bounds, non-decreasing in concurrency, and the joint optimum lies between
// the single-objective optima.
func TestOptimizerInvariantsProperty(t *testing.T) {
	f := func(aRaw, b1Raw, b2Raw uint8) bool {
		alpha := 0.05 + float64(aRaw)/1024 // (0.05, 0.30)
		b1 := 1e-6 + float64(b1Raw)*1e-6   // quadratic coefficient
		b2 := 0.01 + float64(b2Raw)/2048   // linear coefficient
		m := Models{
			ET:                 ETModel{MfuncGB: 0.3, Alpha: alpha, Intercept: math.Log(80) - alpha*0.3},
			Scaling:            ScalingModel{B1: b1, B2: b2},
			RatePerInstanceSec: 1.6667e-4,
			MaxDegree:          30,
		}
		for _, c := range []int{200, 1000, 5000} {
			degree := func(w Weights) int {
				plan, err := m.PlanFor(c, w)
				if err != nil {
					return 0
				}
				return plan.Degree
			}
			dj := degree(Balanced())
			if dj < 1 || dj > m.MaxDegree {
				return false
			}
			ds, de := degree(ServiceOnly()), degree(ExpenseOnly())
			if ds < 1 || de < 1 {
				return false
			}
			lo, hi := ds, de
			if lo > hi {
				lo, hi = hi, lo
			}
			// The joint optimum lies between the single-objective optima,
			// up to the ±1 wobble the ceil(C/P) discretization introduces.
			// (Monotonicity in C — the paper's Fig. 8 observation — holds
			// for the calibrated suite but is NOT an invariant of Eq. 7 for
			// arbitrary parameters, so it is asserted elsewhere.)
			if dj < lo-1 || dj > hi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the storage model never bills negatively and Expense stays
// monotone in concurrency.
func TestExpenseMonotoneInConcurrencyProperty(t *testing.T) {
	f := func(perInst, perFunc int8) bool {
		m := synthModels()
		m.Storage = StorageModel{
			PerInstanceUSD: float64(perInst) / 1e4,
			PerFunctionUSD: float64(perFunc) / 1e5,
		}
		for deg := 1; deg <= m.MaxDegree; deg += 7 {
			if m.Storage.At(deg) < 0 {
				return false
			}
			prev := 0.0
			for _, c := range []int{100, 500, 2500} {
				e := m.Expense(c, deg)
				if e < prev {
					return false
				}
				prev = e
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCeilDivNoOverflow(t *testing.T) {
	for _, degree := range []int{1, 2, 7, 40} {
		for _, c := range []int{1, degree, degree + 1, math.MaxInt - 1, math.MaxInt} {
			got := CeilDiv(c, degree)
			// ⌈c/degree⌉ without forming c + degree.
			want := c / degree
			if c%degree != 0 {
				want++
			}
			if got != want || got < 1 {
				t.Errorf("CeilDiv(%d, %d) = %d, want %d", c, degree, got, want)
			}
		}
		for _, c := range []int{0, -1, math.MinInt} {
			if got := CeilDiv(c, degree); got != 0 {
				t.Errorf("CeilDiv(%d, %d) = %d, want 0", c, degree, got)
			}
		}
	}
}
