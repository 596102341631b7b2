package core

import (
	"errors"
	"fmt"
)

// ErrDegreeInfeasible is returned by a Measurer when a probe at some
// packing degree cannot run at all (e.g. it would exceed the platform's
// execution-time limit). BuildModels treats it as a discovered latency cap:
// P_max^deg is lowered to the last feasible degree (Sec. 2.1's "configured
// to be constrained at a degree lower than M_platform/M_func").
var ErrDegreeInfeasible = errors.New("core: packing degree infeasible on platform")

// Measurer is the only window ProPack has onto a platform: it can run one
// packed instance and time it, and it can spawn an application-independent
// burst of empty instances and time the scaling. Adapters exist for the
// datacenter simulator (SimMeasurer) and for live local execution
// (workload.RunPacked in the examples).
type Measurer interface {
	// MeasureExec runs a single function instance packed at the given
	// degree (at trivial concurrency) and returns its execution time in
	// seconds.
	MeasureExec(degree int) (float64, error)
	// MeasureScaling spawns `instances` concurrent no-op instances and
	// returns the scaling time in seconds. No application code runs.
	MeasureScaling(instances int) (float64, error)
}

// CostMeasurer is implemented by measurers that can also report the
// non-compute bill (request + networking fees) of the last MeasureExec
// probe. BuildModels uses it to fit the StorageModel; measurers without it
// get a zero storage term.
type CostMeasurer interface {
	// LastProbeStorageUSD is the non-compute cost of the most recent
	// MeasureExec run.
	LastProbeStorageUSD() float64
}

// ConcurrentMeasurer was the Measurer extension behind a probe fan-out that
// core no longer runs: BuildModels probes in order through MeasureExec.
// It stays declared only because the benchmark harness's measurer names it;
// ROADMAP item 2 deletes it, with SimMeasurer's two methods below.
type ConcurrentMeasurer interface {
	Measurer
	// MeasureExecCall runs the call-th interference probe (1-based across
	// the whole probe train) at the given packing degree and returns the
	// execution time plus the probe's non-compute bill.
	MeasureExecCall(degree, call int) (etSec, storageUSD float64, err error)
	// AdvanceCalls advances any internal probe-call counter by n, as if n
	// MeasureExec calls had run.
	AdvanceCalls(n int)
}

// Overhead accounts for the resources ProPack itself consumed while
// building its models. The paper includes this overhead in all reported
// results (Sec. 2.1, Sec. 4); experiment drivers here do the same.
type Overhead struct {
	// ExecProbeSec is the summed execution time of interference probes.
	ExecProbeSec float64
	// ExecProbeUSD is the bill for those probes.
	ExecProbeUSD float64
	// ScalingProbeSec is the summed scaling time of the platform probes —
	// paid once per platform and amortized over every application run on it.
	ScalingProbeSec float64
	// ScalingProbeUSD is the bill for the scaling probes (no-op functions:
	// the per-request fees plus a minimal execution sliver).
	ScalingProbeUSD float64
}

// Add accumulates o2 into o.
func (o *Overhead) Add(o2 Overhead) {
	o.ExecProbeSec += o2.ExecProbeSec
	o.ExecProbeUSD += o2.ExecProbeUSD
	o.ScalingProbeSec += o2.ScalingProbeSec
	o.ScalingProbeUSD += o2.ScalingProbeUSD
}

// TotalUSD is the full modeling bill.
func (o Overhead) TotalUSD() float64 { return o.ExecProbeUSD + o.ScalingProbeUSD }

// SampleDegrees returns the packing degrees the interference profiler
// evaluates: every other degree starting at 1 (the curve is monotone, so
// alternate points suffice — Sec. 2.1). For the paper's maximum degrees of
// 40, 15, and 30 this yields exactly the 20, 8, and 15 sample points the
// paper reports for Video, Sort, and Stateless Cost.
func SampleDegrees(maxDegree int) []int {
	if maxDegree < 1 {
		return nil
	}
	var ds []int
	for d := 1; d <= maxDegree; d += 2 {
		ds = append(ds, d)
	}
	return ds
}

// ProfileOptions configures model building.
type ProfileOptions struct {
	// MaxDegree is P_max^deg; required, ≥ 1.
	MaxDegree int
	// MfuncGB is the single-function memory footprint in GB; required.
	MfuncGB float64
	// RatePerInstanceSec is R (dollars per instance-second); required for
	// expense modeling.
	RatePerInstanceSec float64
	// ScalingProbes are the concurrency levels of the platform probe. The
	// paper needs "ten or fewer samples"; nil means DefaultScalingProbes.
	ScalingProbes []int
	// FitET selects the Eq. 1 variant.
	FitET FitETOptions
	// FullSweep disables alternate-point skipping and profiles every
	// degree (used by the sampling ablation).
	FullSweep bool
}

// probeTrials is how many times each packing degree is measured and
// averaged: the paper pre-runs a function "a few times" (Sec. 2.1).
const probeTrials = 3

// DefaultScalingProbes are the concurrency levels used to fit Eq. 2: nine
// points spanning the operating range.
func DefaultScalingProbes() []int {
	return []int{100, 250, 500, 1000, 1500, 2000, 3000, 4000, 5000}
}

// BuildModels runs ProPack's full modeling pipeline against a platform:
// interference probes at alternate packing degrees, scaling probes at the
// configured concurrency levels, then the Eq. 1 and Eq. 2 fits. It returns
// the models, the raw samples (for validation and plots), and the overhead
// incurred.
func BuildModels(meas Measurer, opts ProfileOptions) (Models, []ETSample, []ScalingSample, Overhead, error) {
	var ov Overhead
	etSamples, costSamples, maxFeasible, err := probeInterference(meas, opts, &ov)
	if err != nil {
		return Models{}, nil, nil, ov, err
	}
	etModel, err := FitET(etSamples, opts.MfuncGB, opts.FitET)
	if err != nil {
		return Models{}, nil, nil, ov, err
	}
	scSamples, err := probeScaling(meas, opts, &ov)
	if err != nil {
		return Models{}, nil, nil, ov, err
	}
	scModel, err := FitScaling(scSamples)
	if err != nil {
		return Models{}, nil, nil, ov, err
	}
	storageModel, err := FitStorage(costSamples)
	if err != nil {
		return Models{}, nil, nil, ov, err
	}
	return Models{
		ET:                 etModel,
		Scaling:            scModel,
		Storage:            storageModel,
		RatePerInstanceSec: opts.RatePerInstanceSec,
		MaxDegree:          maxFeasible,
	}, etSamples, scSamples, ov, nil
}

// probeInterference is the per-size half of model building that every
// profile shares: the option checks, the sampled degree list, the
// interference train and the feasibility check. BuildModels runs it once and
// BuildGridModels once per memory size; each fits Eq. 1 and the storage term
// from the samples it returns, alongside the highest feasible packing degree.
//
// The train runs in order on the caller's goroutine: alternate degrees
// ascending, probeTrials per degree, stopping at the first infeasible degree
// (probing is monotone). Each probe is one small instance, so a fan-out's
// coordination costs more than a second core returns (DESIGN.md §12). In
// order, a stateful measurer is also left where a direct MeasureExec after
// the build expects it: SimMeasurer's next probe draws call N + 1's seed.
func probeInterference(meas Measurer, opts ProfileOptions, ov *Overhead) ([]ETSample, []CostSample, int, error) {
	if opts.MaxDegree < 1 {
		return nil, nil, 0, fmt.Errorf("core: profile needs MaxDegree ≥ 1, have %d", opts.MaxDegree)
	}
	if opts.MfuncGB <= 0 {
		return nil, nil, 0, fmt.Errorf("core: profile needs MfuncGB > 0, have %g", opts.MfuncGB)
	}
	if opts.RatePerInstanceSec < 0 {
		return nil, nil, 0, fmt.Errorf("core: negative expense rate")
	}

	degrees := SampleDegrees(opts.MaxDegree)
	if opts.FullSweep {
		degrees = degrees[:0]
		for d := 1; d <= opts.MaxDegree; d++ {
			degrees = append(degrees, d)
		}
	}
	costMeas, hasCost := meas.(CostMeasurer)
	etSamples := make([]ETSample, 0, len(degrees))
	costSamples := make([]CostSample, 0, len(degrees))
	maxFeasible := opts.MaxDegree
probing:
	for _, d := range degrees {
		var sum, costSum float64
		for t := 0; t < probeTrials; t++ {
			et, err := meas.MeasureExec(d)
			if errors.Is(err, ErrDegreeInfeasible) {
				// The platform's execution limit caps the packing degree
				// below the memory bound; probing is monotone, so stop.
				maxFeasible = d - 1
				break probing
			}
			if err != nil {
				return nil, nil, 0, fmt.Errorf("core: interference probe at degree %d: %w", d, err)
			}
			sum += et
			ov.ExecProbeSec += et
			ov.ExecProbeUSD += et * opts.RatePerInstanceSec
			if hasCost {
				storage := costMeas.LastProbeStorageUSD()
				costSum += storage
				ov.ExecProbeUSD += storage
			}
		}
		etSamples = append(etSamples, ETSample{Degree: d, ETSec: sum / probeTrials})
		if hasCost {
			costSamples = append(costSamples, CostSample{Degree: d, StorageUSD: costSum / probeTrials})
		}
	}
	if maxFeasible < 1 {
		return nil, nil, 0, fmt.Errorf("core: application infeasible even unpacked: %w", ErrDegreeInfeasible)
	}
	return etSamples, costSamples, maxFeasible, nil
}

// probeScaling runs the platform scaling probes at opts.ScalingProbes (nil
// means DefaultScalingProbes) in order on the caller's goroutine. A probe
// error returns after the Overhead holds every earlier probe.
func probeScaling(meas Measurer, opts ProfileOptions, ov *Overhead) ([]ScalingSample, error) {
	probes := opts.ScalingProbes
	if probes == nil {
		probes = DefaultScalingProbes()
	}
	scSamples := make([]ScalingSample, 0, len(probes))
	for _, c := range probes {
		st, err := meas.MeasureScaling(c)
		if err != nil {
			return nil, fmt.Errorf("core: scaling probe at %d instances: %w", c, err)
		}
		scSamples = append(scSamples, ScalingSample{Instances: c, ScalingSec: st})
		ov.ScalingProbeSec += st
		// No-op probe functions still pay per-request and a 100 ms sliver.
		ov.ScalingProbeUSD += float64(c) * (0.1*opts.RatePerInstanceSec + 2e-7)
	}
	return scSamples, nil
}
