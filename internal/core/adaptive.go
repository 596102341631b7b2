package core

import (
	"fmt"
	"sort"
)

// Adaptive refinement: ProPack's profiling phase samples a handful of
// packing degrees once; every production run afterwards is itself a free
// measurement of ET at the chosen degree. A Tracker folds those
// observations back into the Eq. 1 fit, so the model tracks platform drift
// (new hardware generations, runtime updates) without re-profiling — the
// operational counterpart of the paper's overhead-amortization argument.
type Tracker struct {
	mfuncGB      float64
	fitOpts      FitETOptions
	probeSamples []ETSample // the original profile, kept verbatim
	observations []ETSample // production observations, most recent last
	maxObs       int
	models       Models
}

// NewTracker wraps freshly built models and their probe samples.
// maxObservations bounds the retained production observations (oldest
// evicted first); 0 means the default (64).
func NewTracker(models Models, probeSamples []ETSample, maxObservations int) (*Tracker, error) {
	if err := models.Validate(); err != nil {
		return nil, err
	}
	if len(probeSamples) < 2 {
		return nil, fmt.Errorf("core: tracker needs ≥2 probe samples, have %d", len(probeSamples))
	}
	if maxObservations == 0 {
		maxObservations = 64
	}
	if maxObservations < 1 {
		return nil, fmt.Errorf("core: non-positive observation cap %d", maxObservations)
	}
	return &Tracker{
		mfuncGB:      models.ET.MfuncGB,
		probeSamples: append([]ETSample(nil), probeSamples...),
		maxObs:       maxObservations,
		models:       models,
	}, nil
}

// Models returns the current (possibly refitted) models.
func (t *Tracker) Models() Models { return t.models }

// Observations reports how many production observations are retained.
func (t *Tracker) Observations() int { return len(t.observations) }

// Observe folds one production measurement — the mean instance execution
// time of a run at the given packing degree — into the fit. Recent
// observations weigh like probe samples; the Eq. 1 refit uses both.
func (t *Tracker) Observe(degree int, etSec float64) error {
	if degree < 1 {
		return fmt.Errorf("core: observation at degree %d", degree)
	}
	if etSec <= 0 {
		return fmt.Errorf("core: non-positive observed ET %g", etSec)
	}
	t.observations = append(t.observations, ETSample{Degree: degree, ETSec: etSec})
	if len(t.observations) > t.maxObs {
		t.observations = t.observations[len(t.observations)-t.maxObs:]
	}
	// Refit on the union. When drift is real, the probe samples are stale;
	// weight observations by recency through duplication is overkill — the
	// simple union already pulls α toward current behaviour, and the stale
	// probes keep the fit anchored across the degree range.
	all := make([]ETSample, 0, len(t.probeSamples)+len(t.observations))
	all = append(all, t.probeSamples...)
	all = append(all, t.observations...)
	et, err := FitET(all, t.mfuncGB, t.fitOpts)
	if err != nil {
		return err
	}
	t.models.ET = et
	return nil
}

// Reprofile replaces the probe baseline outright (e.g. after the tracker's
// residuals show the platform has drifted too far for incremental fixes).
func (t *Tracker) Reprofile(probeSamples []ETSample) error {
	if len(probeSamples) < 2 {
		return fmt.Errorf("core: reprofile needs ≥2 samples")
	}
	et, err := FitET(probeSamples, t.mfuncGB, t.fitOpts)
	if err != nil {
		return err
	}
	t.probeSamples = append(t.probeSamples[:0], probeSamples...)
	t.observations = t.observations[:0]
	t.models.ET = et
	return nil
}

// Residual reports the relative error of the current model at a fresh
// observation: (observed − predicted)/predicted. Large persistent residuals
// signal that Reprofile is due.
func (t *Tracker) Residual(degree int, etSec float64) float64 {
	pred := t.models.ET.At(degree)
	return (etSec - pred) / pred
}

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
