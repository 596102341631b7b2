package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (±%g)", msg, got, want, tol)
	}
}

func TestPolyFitExactQuadratic(t *testing.T) {
	// y = 3 - 2x + 0.5x² should be recovered exactly from noiseless data.
	xs := []float64{0, 1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 - 2*x + 0.5*x*x
	}
	p, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, p[0], 3, 1e-9, "c0")
	approx(t, p[1], -2, 1e-9, "c1")
	approx(t, p[2], 0.5, 1e-9, "c2")
}

func TestPolyFitLinearThroughNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs, ys := make([]float64, 200), make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 10 + 2.5*xs[i] + rng.NormFloat64()*0.01
	}
	p, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, p[0], 10, 0.05, "intercept")
	approx(t, p[1], 2.5, 0.01, "slope")
}

func TestPolyFitDegreeZeroIsMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	p, err := PolyFit(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, p[0], 5, 1e-12, "constant fit")
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Fatal("negative degree accepted")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Fatal("underdetermined fit accepted")
	}
	// All x identical → singular Vandermonde for degree ≥ 1.
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Fatal("singular system accepted")
	}
}

func TestPolyAtHorner(t *testing.T) {
	p := Poly{1, 0, -2, 1} // 1 - 2x² + x³
	approx(t, p.At(0), 1, 1e-12, "at 0")
	approx(t, p.At(2), 1-8+8, 1e-12, "at 2")
	approx(t, p.At(-1), 1-2-1, 1e-12, "at -1")
	var zero Poly
	if zero.At(5) != 0 {
		t.Fatal("empty poly should evaluate to 0")
	}
	if zero.Degree() != 0 || p.Degree() != 3 {
		t.Fatal("degree reporting wrong")
	}
}

// Property: for any non-degenerate quadratic data, PolyFit residuals of the
// correct-degree fit are ~0.
func TestPolyFitRecoveryProperty(t *testing.T) {
	f := func(a, b, c int8) bool {
		ca, cb, cc := float64(a)/8, float64(b)/8, float64(c)/8
		xs := []float64{-3, -1, 0, 1, 2, 4, 7}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = ca + cb*x + cc*x*x
		}
		p, err := PolyFit(xs, ys, 2)
		if err != nil {
			return false
		}
		for i, x := range xs {
			if math.Abs(p.At(x)-ys[i]) > 1e-6*(1+math.Abs(ys[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFiniteNonNeg(t *testing.T) {
	if !FiniteNonNeg() || !FiniteNonNeg(0, 1.5, math.MaxFloat64, 5e-324) {
		t.Error("finite non-negative values refused")
	}
	for _, v := range []float64{-1, math.Copysign(5e-324, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		if FiniteNonNeg(1, v, 2) {
			t.Errorf("FiniteNonNeg accepted %v", v)
		}
	}
}
