// Package core implements ProPack itself: the analytical models of Sec. 2
// of the paper and the optimal-packing-degree machinery built on them.
//
// ProPack never sees the simulator's internals. It builds its models from
// the same observations it could make against a real cloud:
//
//  1. Interference estimation (Sec. 2.1): sample a single instance's
//     execution time at a few packing degrees (skipping alternate points —
//     the curve is monotone) and fit Eq. 1, ET(P) = exp(Mfunc·α·P).
//  2. Service-time modeling (Sec. 2.2): probe the platform's scaling time
//     at a handful of concurrency levels — application-independent, no
//     function code runs — and fit Eq. 2, β1·C² + β2·C − β3.
//  3. Cost modeling (Sec. 2.3): Eq. 4 from the two models above; no
//     additional experiments.
//
// The joint optimizer (Sec. 2.5, Eqs. 5–7) and the QoS-aware weight search
// (Sec. 2.6, Eqs. 8–9) sit on top, and Sec. 2.4's Pearson χ² test validates
// the fits.
package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// ETModel is Eq. 1: the execution time of one function instance at packing
// degree P, ET(P) = exp(Mfunc·α·P + c). The paper's exact form has c = 0;
// the fitted-intercept variant frees ET(1) from the exp(Mfunc·α) pin and is
// the default because it fits real curves better (see the ablation bench).
type ETModel struct {
	// MfuncGB is the memory consumed by a single function, in GB (the
	// paper's Mfunc). It is part of Eq. 1's exponent.
	MfuncGB float64
	// Alpha is the fitted constant of proportionality α.
	Alpha float64
	// Intercept is c above; zero for the paper-exact model.
	Intercept float64
}

// At evaluates Eq. 1 at the given packing degree.
func (m ETModel) At(degree int) float64 {
	return math.Exp(m.MfuncGB*m.Alpha*float64(degree) + m.Intercept)
}

func (m ETModel) String() string {
	return fmt.Sprintf("ET(P) = exp(%.4g·%.4g·P %+.4g)", m.MfuncGB, m.Alpha, m.Intercept)
}

// ETSample is one interference-profiling observation: the measured
// execution time of a single instance at a packing degree.
type ETSample struct {
	Degree int
	ETSec  float64
}

// FitETOptions selects the Eq. 1 variant.
type FitETOptions struct {
	// PaperExact pins the intercept to zero, matching Eq. 1 literally.
	PaperExact bool
}

// FitET fits Eq. 1 to interference samples. mfuncGB must be positive and at
// least two samples are required (one for the paper-exact single-parameter
// form).
func FitET(samples []ETSample, mfuncGB float64, opts FitETOptions) (ETModel, error) {
	if mfuncGB <= 0 {
		return ETModel{}, fmt.Errorf("core: non-positive Mfunc %g GB", mfuncGB)
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		if s.Degree < 1 {
			return ETModel{}, fmt.Errorf("core: sample with degree %d", s.Degree)
		}
		xs[i] = mfuncGB * float64(s.Degree)
		ys[i] = s.ETSec
	}
	var (
		em  stats.ExpModel
		err error
	)
	if opts.PaperExact {
		em, err = stats.ExpFitThroughOrigin(xs, ys)
	} else {
		em, err = stats.ExpFit(xs, ys)
	}
	if err != nil {
		return ETModel{}, fmt.Errorf("core: fitting Eq. 1: %w", err)
	}
	return ETModel{MfuncGB: mfuncGB, Alpha: em.Slope, Intercept: em.Intercept}, nil
}

// ScalingModel is Eq. 2: Scaling(C_eff) = β1·C_eff² + β2·C_eff − β3. The
// coefficients are platform properties, independent of the application.
type ScalingModel struct {
	B1, B2, B3 float64
}

// At evaluates Eq. 2 at an effective concurrency, clamped at zero (the
// fitted −β3 can push tiny concurrencies negative, which is non-physical).
func (m ScalingModel) At(ceff float64) float64 {
	v := m.B1*ceff*ceff + m.B2*ceff - m.B3
	if v < 0 {
		return 0
	}
	return v
}

func (m ScalingModel) String() string {
	return fmt.Sprintf("Scaling(C) = %.4g·C² %+.4g·C %+.4g", m.B1, m.B2, -m.B3)
}

// ScalingSample is one scaling-time observation: spawning Instances
// concurrent instances took ScalingSec until the last one started.
type ScalingSample struct {
	Instances  int
	ScalingSec float64
}

// FitScaling fits Eq. 2 by second-order polynomial regression, as the paper
// does after rejecting linear, cubic, exponential, logarithmic, logistic,
// normal, and sinusoidal alternatives.
func FitScaling(samples []ScalingSample) (ScalingModel, error) {
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		if s.Instances < 1 {
			return ScalingModel{}, fmt.Errorf("core: scaling sample with %d instances", s.Instances)
		}
		xs[i] = float64(s.Instances)
		ys[i] = s.ScalingSec
	}
	p, err := stats.PolyFit(xs, ys, 2)
	if err != nil {
		return ScalingModel{}, fmt.Errorf("core: fitting Eq. 2: %w", err)
	}
	return ScalingModel{B1: p[2], B2: p[1], B3: -p[0]}, nil
}

// StorageModel captures the non-compute part of an instance's bill —
// request fees plus the per-GB networking fee Google and Azure charge
// (paper Fig. 21) — as an affine function of the packing degree:
// PerInstanceUSD + PerFunctionUSD·degree. It is fitted from the expense of
// the same probe runs that fit Eq. 1; the zero value charges nothing
// (adequate on AWS, where compute dominates the bill).
type StorageModel struct {
	PerInstanceUSD float64
	PerFunctionUSD float64
}

// At is the modeled non-compute cost of one instance at the given degree,
// clamped at zero.
func (m StorageModel) At(degree int) float64 {
	v := m.PerInstanceUSD + m.PerFunctionUSD*float64(degree)
	if v < 0 {
		return 0
	}
	return v
}

// CostSample is one probe's non-compute bill at a packing degree.
type CostSample struct {
	Degree     int
	StorageUSD float64
}

// FitStorage fits the affine storage model by least squares. Fewer than
// two samples yield the zero model (no storage term).
func FitStorage(samples []CostSample) (StorageModel, error) {
	if len(samples) < 2 {
		return StorageModel{}, nil
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		if s.Degree < 1 {
			return StorageModel{}, fmt.Errorf("core: cost sample with degree %d", s.Degree)
		}
		xs[i] = float64(s.Degree)
		ys[i] = s.StorageUSD
	}
	line, err := stats.PolyFit(xs, ys, 1)
	if err != nil {
		return StorageModel{}, fmt.Errorf("core: fitting storage model: %w", err)
	}
	return StorageModel{PerInstanceUSD: line[0], PerFunctionUSD: line[1]}, nil
}

// Models bundles everything ProPack needs to predict service time and
// expense for an application on a platform.
type Models struct {
	ET      ETModel
	Scaling ScalingModel
	// Storage is the fitted non-compute cost term (zero on platforms where
	// compute dominates).
	Storage StorageModel
	// RatePerInstanceSec is R in Eq. 4: dollars per instance-second
	// (instance memory in GB × the platform's GB·second price).
	RatePerInstanceSec float64
	// MaxDegree is P_max^deg = floor(M_platform / M_func), possibly lowered
	// further by a latency cap (Sec. 2.1).
	MaxDegree int
}

// Validate reports an error if the models cannot be optimized over.
func (m Models) Validate() error {
	switch {
	case m.MaxDegree < 1:
		return fmt.Errorf("core: max packing degree %d < 1", m.MaxDegree)
	case m.RatePerInstanceSec < 0:
		return fmt.Errorf("core: negative expense rate")
	case m.ET.MfuncGB <= 0:
		return fmt.Errorf("core: ET model missing Mfunc")
	case !finite(m.ET.MfuncGB, m.ET.Alpha, m.ET.Intercept, m.Scaling.B1, m.Scaling.B2, m.Scaling.B3,
		m.Storage.PerInstanceUSD, m.Storage.PerFunctionUSD, m.RatePerInstanceSec):
		return fmt.Errorf("core: non-finite model coefficient in %+v", m)
	}
	return nil
}

// finite reports whether every x is a number other than ±Inf. The models'
// validators check it beside their sign checks, which NaN walks through.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// instances is the number of function instances at concurrency C ≥ 1 and
// degree P (the system spawns ceil(C/P); the paper's algebra uses C/P).
func instances(c, degree int) float64 {
	return float64((c-1)/degree + 1) // c+degree−1 overflows near MaxInt
}

// ServiceTime is the argument of Eq. 3: modeled total service time at
// concurrency c and packing degree.
func (m Models) ServiceTime(c, degree int) float64 {
	return m.ET.At(degree) + m.Scaling.At(instances(c, degree))
}

// ServiceTimeQuantile models the service time of the first q% of instances:
// the last of the first q% starts after Scaling(q·C_eff), then executes.
// q=100 reduces to ServiceTime; q=95 is the paper's tail, q=50 its median.
func (m Models) ServiceTimeQuantile(c, degree int, q float64) float64 {
	return m.ET.At(degree) + m.Scaling.At(q/100*instances(c, degree))
}

// Expense is the argument of Eq. 4 — modeled user expense in dollars at
// concurrency c and packing degree — extended with the fitted non-compute
// term (request and networking fees) per instance.
func (m Models) Expense(c, degree int) float64 {
	n := instances(c, degree)
	return (m.ET.At(degree)*m.RatePerInstanceSec + m.Storage.At(degree)) * n
}
