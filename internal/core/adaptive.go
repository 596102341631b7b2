package core

import "sort"

// DegreeRange reports the contiguous range of packing degrees around the
// optimum whose Eq. 7 weighted regret stays within tol (e.g. 0.02 = 2%) of
// the best — the "plan stability" band. A wide band means the choice is
// forgiving; a narrow one means the degree matters. The optimum is always
// inside the returned range.
func (m Models) DegreeRange(c int, w Weights, tol float64) (lo, hi int, err error) {
	return m.direct().DegreeRange(c, w, tol)
}

// SortedResidualMagnitudes is a test/diagnostic helper: the absolute
// relative errors of the model against a sample set, ascending.
func (m Models) SortedResidualMagnitudes(samples []ETSample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		pred := m.ET.At(s.Degree)
		d := (s.ETSec - pred) / pred
		if d < 0 {
			d = -d
		}
		out = append(out, d)
	}
	sort.Float64s(out)
	return out
}
