package stats

import "math"

// Contains reports whether v lies in the interval.
func (c CI) Contains(v float64) bool { return v >= c.Lo && v <= c.Hi }

// At evaluates the model at x.
func (m ExpModel) At(x float64) float64 {
	return math.Exp(m.Slope*x + m.Intercept)
}

// Degree reports the nominal degree of the polynomial (len-1); the zero
// polynomial has degree 0.
func (p Poly) Degree() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}
