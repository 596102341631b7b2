package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Residual-resampling bootstrap for the two fits ProPack relies on. The
// paper validates its models with a χ² test after the fact; confidence
// intervals on the fitted parameters answer the prior question — how much
// the few profiling samples actually pin the model down.

// CI is a two-sided percentile confidence interval.
type CI struct {
	Lo, Hi float64
}

func (c CI) String() string { return fmt.Sprintf("[%.4g, %.4g]", c.Lo, c.Hi) }

// percentileCI extracts the central `conf` mass of sorted bootstrap
// replicates.
func percentileCI(replicates []float64, conf float64) CI {
	sort.Float64s(replicates)
	alpha := (1 - conf) / 2
	return CI{
		Lo: percentileSorted(replicates, 100*alpha),
		Hi: percentileSorted(replicates, 100*(1-alpha)),
	}
}

// percentileSorted returns the q-th percentile (q in [0,100]) of ascending
// data by linear interpolation between closest ranks.
func percentileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ExpFitBootstrap fits y = exp(a·x + b) and bootstrap-resamples the
// log-space residuals to produce confidence intervals for a and b at the
// given confidence level (e.g. 0.95). iters ≥ 100 recommended.
func ExpFitBootstrap(xs, ys []float64, iters int, conf float64, seed int64) (m ExpModel, slope, intercept CI, err error) {
	if iters < 10 {
		return ExpModel{}, CI{}, CI{}, fmt.Errorf("stats: bootstrap needs ≥10 iterations, have %d", iters)
	}
	if conf <= 0 || conf >= 1 {
		return ExpModel{}, CI{}, CI{}, fmt.Errorf("stats: confidence %g outside (0,1)", conf)
	}
	m, err = ExpFit(xs, ys)
	if err != nil {
		return ExpModel{}, CI{}, CI{}, err
	}
	n := len(xs)
	resid := make([]float64, n)
	for i := range xs {
		resid[i] = math.Log(ys[i]) - (m.Slope*xs[i] + m.Intercept)
	}
	rng := rand.New(rand.NewSource(seed))
	slopes := make([]float64, 0, iters)
	intercepts := make([]float64, 0, iters)
	synth := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range synth {
			synth[i] = math.Exp(m.Slope*xs[i] + m.Intercept + resid[rng.Intn(n)])
		}
		bm, err := ExpFit(xs, synth)
		if err != nil {
			continue // degenerate resample; skip
		}
		slopes = append(slopes, bm.Slope)
		intercepts = append(intercepts, bm.Intercept)
	}
	if len(slopes) < iters/2 {
		return ExpModel{}, CI{}, CI{}, fmt.Errorf("stats: too many degenerate bootstrap resamples")
	}
	return m, percentileCI(slopes, conf), percentileCI(intercepts, conf), nil
}

// PolyFitBootstrap fits a degree-d polynomial and bootstrap-resamples the
// residuals to produce a confidence interval per coefficient.
func PolyFitBootstrap(xs, ys []float64, degree, iters int, conf float64, seed int64) (Poly, []CI, error) {
	if iters < 10 {
		return nil, nil, fmt.Errorf("stats: bootstrap needs ≥10 iterations, have %d", iters)
	}
	if conf <= 0 || conf >= 1 {
		return nil, nil, fmt.Errorf("stats: confidence %g outside (0,1)", conf)
	}
	p, err := PolyFit(xs, ys, degree)
	if err != nil {
		return nil, nil, err
	}
	n := len(xs)
	resid := make([]float64, n)
	for i := range xs {
		resid[i] = ys[i] - p.At(xs[i])
	}
	rng := rand.New(rand.NewSource(seed))
	replicates := make([][]float64, degree+1)
	synth := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range synth {
			synth[i] = p.At(xs[i]) + resid[rng.Intn(n)]
		}
		bp, err := PolyFit(xs, synth, degree)
		if err != nil {
			continue
		}
		for c := range bp {
			replicates[c] = append(replicates[c], bp[c])
		}
	}
	if len(replicates[0]) < iters/2 {
		return nil, nil, fmt.Errorf("stats: too many degenerate bootstrap resamples")
	}
	cis := make([]CI, degree+1)
	for c := range cis {
		cis[c] = percentileCI(replicates[c], conf)
	}
	return p, cis, nil
}
