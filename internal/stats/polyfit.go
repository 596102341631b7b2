// Package stats provides the numerical substrate for ProPack's analytical
// models: least-squares polynomial and exponential fits, the Pearson χ²
// goodness-of-fit test, and order statistics over run metrics.
//
// Everything is implemented on top of the standard library so the module can
// be built offline; the solvers are small, dense, and deterministic.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnderdetermined is returned when a fit is requested with fewer samples
// than free parameters.
var ErrUnderdetermined = errors.New("stats: fewer samples than free parameters")

// ErrSingular is returned when the normal equations of a fit are singular,
// e.g. because all sample abscissae coincide.
var ErrSingular = errors.New("stats: singular system (degenerate samples)")

// ErrNonFinite is returned when a fit or test receives a NaN or ±Inf sample,
// or when intermediate arithmetic overflows so badly the result would carry
// non-finite coefficients. Surfaced by fuzzing: NaN inputs previously slid
// through the `<= 0` style guards (NaN compares false against everything)
// and produced NaN models without any error.
var ErrNonFinite = errors.New("stats: non-finite sample or result")

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// FiniteNonNeg reports whether every x is a finite number ≥ 0 (NaN is not).
func FiniteNonNeg(xs ...float64) bool {
	for _, x := range xs {
		if !(x >= 0 && x <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// checkFinite returns ErrNonFinite (with context) on the first non-finite
// value in vs.
func checkFinite(what string, vs []float64) error {
	for i, v := range vs {
		if !finite(v) {
			return fmt.Errorf("%w: %s[%d] = %g", ErrNonFinite, what, i, v)
		}
	}
	return nil
}

// Poly is a polynomial c[0] + c[1]·x + c[2]·x² + … with coefficients in
// ascending-degree order.
type Poly []float64

// At evaluates the polynomial at x using Horner's scheme.
func (p Poly) At(x float64) float64 {
	var y float64
	for i := len(p) - 1; i >= 0; i-- {
		y = y*x + p[i]
	}
	return y
}

// Degree reports the nominal degree of the polynomial (len-1); the zero
// polynomial has degree 0.
func (p Poly) Degree() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

func (p Poly) String() string {
	s := ""
	for i, c := range p {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%.6g·x^%d", c, i)
	}
	return s
}

// PolyFit fits a polynomial of the given degree to the points (xs[i], ys[i])
// by unweighted least squares. It solves the normal equations directly with
// Gaussian elimination and partial pivoting, which is ample for the low
// degrees (≤3) ProPack uses.
func PolyFit(xs, ys []float64, degree int) (Poly, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: mismatched sample lengths %d vs %d", len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("stats: negative degree %d", degree)
	}
	n := degree + 1
	if len(xs) < n {
		return nil, fmt.Errorf("%w: need %d samples for degree %d, have %d",
			ErrUnderdetermined, n, degree, len(xs))
	}
	if err := checkFinite("x", xs); err != nil {
		return nil, err
	}
	if err := checkFinite("y", ys); err != nil {
		return nil, err
	}
	// Build the normal equations AᵀA c = Aᵀy where A is the Vandermonde
	// matrix. AᵀA[i][j] = Σ x^(i+j), Aᵀy[i] = Σ y·x^i.
	pow := make([]float64, 2*n-1)
	rhs := make([]float64, n)
	for k, x := range xs {
		xp := 1.0
		for i := 0; i < len(pow); i++ {
			if i < n {
				rhs[i] += ys[k] * xp
			}
			pow[i] += xp
			xp *= x
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			m[i][j] = pow[i+j]
		}
		m[i][n] = rhs[i]
	}
	c, err := solveAugmented(m)
	if err != nil {
		return nil, err
	}
	// Finite inputs can still overflow the power sums (|x| ≈ 1e200 squares
	// past MaxFloat64), leaving Inf/NaN in the normal equations that survive
	// the pivot check. Refuse to hand back a poisoned model.
	if err := checkFinite("coefficient", c); err != nil {
		return nil, err
	}
	return Poly(c), nil
}

// solveAugmented solves the augmented system [A|b] in place by Gaussian
// elimination with partial pivoting and returns the solution vector.
func solveAugmented(m [][]float64) ([]float64, error) {
	n := len(m)
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in this column at or below the diagonal.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := m[r][n]
		for c := r + 1; c < n; c++ {
			s -= m[r][c] * x[c]
		}
		x[r] = s / m[r][r]
	}
	return x, nil
}
