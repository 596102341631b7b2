package stats

import (
	"fmt"
	"math"
)

// ExpModel is the exponential execution-time model of ProPack's Eq. 1:
//
//	y(x) = exp(Slope·x + Intercept)
//
// For the paper-exact form, x is Mfunc·P and Intercept is zero; the
// intercept variant generalizes the model so ET(1) is not pinned to
// exp(Slope·Mfunc).
type ExpModel struct {
	Slope     float64
	Intercept float64
}

func (m ExpModel) String() string {
	return fmt.Sprintf("exp(%.6g·x %+.6g)", m.Slope, m.Intercept)
}

// checkExpObservation rejects observations the log transform cannot take.
// Non-finite values (NaN, ±Inf) unwrap to ErrNonFinite so callers can tell
// poisoned measurements apart from merely out-of-domain ones; finite
// non-positive values stay a plain domain error. The `!(y > 0)` form is
// deliberate: NaN fails it too, unlike `y <= 0`, which lets NaN through
// (NaN comparisons are always false).
func checkExpObservation(y float64, i int) error {
	if !(y > 0) || math.IsInf(y, 1) {
		if !finite(y) {
			return fmt.Errorf("%w: exponential fit observation %g at index %d", ErrNonFinite, y, i)
		}
		return fmt.Errorf("stats: exponential fit requires positive observations, got %g at index %d", y, i)
	}
	return nil
}

// ExpFit fits y = exp(a·x + b) by linear least squares on (x, ln y).
// All ys must be strictly positive.
func ExpFit(xs, ys []float64) (ExpModel, error) {
	if len(xs) != len(ys) {
		return ExpModel{}, fmt.Errorf("stats: mismatched sample lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return ExpModel{}, fmt.Errorf("%w: exponential fit needs ≥2 samples, have %d", ErrUnderdetermined, len(xs))
	}
	logs := make([]float64, len(ys))
	for i, y := range ys {
		if err := checkExpObservation(y, i); err != nil {
			return ExpModel{}, err
		}
		logs[i] = math.Log(y)
	}
	line, err := PolyFit(xs, logs, 1)
	if err != nil {
		return ExpModel{}, err
	}
	return ExpModel{Slope: line[1], Intercept: line[0]}, nil
}

// ExpFitThroughOrigin fits the paper-exact one-parameter model
// y = exp(a·x), i.e. ln y = a·x with no intercept:
//
//	a = Σ xᵢ·ln yᵢ / Σ xᵢ²
//
// This is the literal form of Eq. 1; callers that need ET(1) to match the
// measured baseline should prefer ExpFit.
func ExpFitThroughOrigin(xs, ys []float64) (ExpModel, error) {
	if len(xs) != len(ys) {
		return ExpModel{}, fmt.Errorf("stats: mismatched sample lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 1 {
		return ExpModel{}, fmt.Errorf("%w: need ≥1 sample", ErrUnderdetermined)
	}
	if err := checkFinite("x", xs); err != nil {
		return ExpModel{}, err
	}
	var num, den float64
	for i, x := range xs {
		y := ys[i]
		if err := checkExpObservation(y, i); err != nil {
			return ExpModel{}, err
		}
		num += x * math.Log(y)
		den += x * x
	}
	if den == 0 {
		return ExpModel{}, ErrSingular
	}
	slope := num / den
	if !finite(slope) {
		// Overflowed accumulators (|x| near sqrt(MaxFloat64)) can yield
		// Inf/Inf here even though every sample was finite.
		return ExpModel{}, fmt.Errorf("%w: slope %g", ErrNonFinite, slope)
	}
	return ExpModel{Slope: slope}, nil
}
