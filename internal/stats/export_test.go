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

// quantilesBracketed reports whether Quantiles answers xs at qs on its
// bracketed path, sample and one pass, rather than from a whole copy.
func quantilesBracketed(xs []float64, qs ...float64) bool {
	ranks := make([]int, len(qs))
	for i, q := range qs {
		ranks[i] = QuantileIndex(len(xs), q)
	}
	return len(xs) > selectScratchMax && selectBracketed(xs, ranks, make([]float64, len(qs)))
}

// sampledAt reports which indices of an n-long input the bracketed path's
// sample reads.
func sampledAt(n int) []bool {
	at := make([]bool, n)
	for j := 0; j < bracketSample; j++ {
		at[sampleIndex(j, n)] = true
	}
	return at
}
