package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/parallel"
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

// ConcurrentMeasurer is the optional Measurer extension that unlocks the
// parallel probe fan-out. A measurer may implement it when its probes are
// pure functions of their arguments — true for simulator-backed measurers,
// whose "platform" is a deterministic model, and false for live measurers,
// whose concurrent probes would contend for the very resources being timed
// (livemeasure stays sequential by default for exactly that reason).
//
// The contract BuildModels relies on:
//
//   - MeasureExecCall(degree, call) must return the same values the
//     sequential MeasureExec train would have produced on its call-th
//     invocation, for any execution order and from any goroutine. In
//     particular a degree's feasibility must not depend on the call index.
//   - MeasureScaling must be safe to call concurrently and be a pure
//     function of the instance count.
//   - AdvanceCalls(n) is invoked once per BuildModels run, after the
//     interference train, with the number of probe calls the sequential
//     train performed — so a measurer keeping a call counter for
//     interleaved direct MeasureExec use (the ablation drivers do this)
//     stays bit-compatible with the historical sequential pipeline.
type ConcurrentMeasurer interface {
	Measurer
	// MeasureExecCall runs the call-th interference probe (1-based across
	// the whole probe train) at the given packing degree and returns the
	// execution time plus the probe's non-compute bill.
	MeasureExecCall(degree, call int) (etSec, storageUSD float64, err error)
	// AdvanceCalls advances any internal probe-call counter by n, as if n
	// sequential MeasureExec calls had run.
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
// sequential-or-concurrent interference train, and the feasibility check.
// BuildModels runs it once and BuildGridModels once per memory size; each
// fits Eq. 1 and the storage term from the samples it returns, alongside
// the highest feasible packing degree.
func probeInterference(meas Measurer, opts ProfileOptions, ov *Overhead) (etSamples []ETSample, costSamples []CostSample, maxFeasible int, err error) {
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
	_, hasCost := meas.(CostMeasurer)
	if cm, ok := meas.(ConcurrentMeasurer); ok {
		etSamples, costSamples, maxFeasible, err = probeExecConcurrent(cm, hasCost, degrees, opts, ov)
	} else {
		etSamples, costSamples, maxFeasible, err = probeExecSequential(meas, hasCost, degrees, opts, ov)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if maxFeasible < 1 {
		return nil, nil, 0, fmt.Errorf("core: application infeasible even unpacked: %w", ErrDegreeInfeasible)
	}
	return etSamples, costSamples, maxFeasible, nil
}

// probeExecSequential is the interference probe train for plain Measurers:
// alternate degrees in order, trials per degree, stopping at the first
// infeasible degree (probing is monotone). This is the historical pipeline
// and the oracle probeExecConcurrent must reproduce bit-for-bit.
func probeExecSequential(meas Measurer, hasCost bool, degrees []int, opts ProfileOptions, ov *Overhead) ([]ETSample, []CostSample, int, error) {
	costMeas, _ := meas.(CostMeasurer)
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
	return etSamples, costSamples, maxFeasible, nil
}

// probeExecConcurrent fans the interference probe train out over a bounded
// worker pool, one task per sampled degree, trials sequential within a task.
// Probe seeds derive from the 1-based call index the sequential train would
// have used (call = degreeIndex·trials + trial + 1), results fold in degree
// order, and the overhead accumulates with the exact statement order of
// probeExecSequential — so samples, overhead, and the discovered feasibility
// cap are bit-identical for every worker count, including 1, and to the
// sequential train itself. Degrees past the first infeasible one may probe
// speculatively (the sequential train would have stopped); their results are
// discarded by the fold and their cost never reaches the Overhead.
func probeExecConcurrent(cm ConcurrentMeasurer, hasCost bool, degrees []int, opts ProfileOptions, ov *Overhead) ([]ETSample, []CostSample, int, error) {
	type trialResult struct {
		et, storage float64
		err         error
	}
	results, err := parallel.Map(context.Background(), len(degrees),
		func(_ context.Context, i int) ([]trialResult, error) {
			out := make([]trialResult, 0, probeTrials)
			for t := 0; t < probeTrials; t++ {
				et, storage, err := cm.MeasureExecCall(degrees[i], i*probeTrials+t+1)
				out = append(out, trialResult{et: et, storage: storage, err: err})
				if err != nil {
					break // the sequential train stops at this call
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, nil, 0, err // unreachable: tasks never fail, ctx never cancels
	}

	etSamples := make([]ETSample, 0, len(degrees))
	costSamples := make([]CostSample, 0, len(degrees))
	maxFeasible := opts.MaxDegree
	calls := 0
fold:
	for i, d := range degrees {
		var sum, costSum float64
		for _, r := range results[i] {
			calls++ // the sequential train made this call too
			if errors.Is(r.err, ErrDegreeInfeasible) {
				maxFeasible = d - 1
				break fold
			}
			if r.err != nil {
				cm.AdvanceCalls(calls)
				return nil, nil, 0, fmt.Errorf("core: interference probe at degree %d: %w", d, r.err)
			}
			sum += r.et
			ov.ExecProbeSec += r.et
			ov.ExecProbeUSD += r.et * opts.RatePerInstanceSec
			if hasCost {
				costSum += r.storage
				ov.ExecProbeUSD += r.storage
			}
		}
		etSamples = append(etSamples, ETSample{Degree: d, ETSec: sum / probeTrials})
		if hasCost {
			costSamples = append(costSamples, CostSample{Degree: d, StorageUSD: costSum / probeTrials})
		}
	}
	cm.AdvanceCalls(calls)
	return etSamples, costSamples, maxFeasible, nil
}

// probeScaling runs the platform scaling probes at opts.ScalingProbes (nil
// means DefaultScalingProbes): sequentially for plain Measurers, fanned out
// over the worker pool for ConcurrentMeasurers (whose MeasureScaling is a
// pure function of the instance count). The in-order fold keeps samples and
// overhead bit-identical across worker counts, and a probe error surfaces
// only after the accumulation of every earlier probe — exactly as the
// sequential loop leaves the Overhead.
func probeScaling(meas Measurer, opts ProfileOptions, ov *Overhead) ([]ScalingSample, error) {
	probes := opts.ScalingProbes
	if probes == nil {
		probes = DefaultScalingProbes()
	}
	_, concurrent := meas.(ConcurrentMeasurer)
	type scalingResult struct {
		st  float64
		err error
	}
	var results []scalingResult
	if concurrent {
		var err error
		results, err = parallel.Map(context.Background(), len(probes),
			func(_ context.Context, i int) (scalingResult, error) {
				st, err := meas.MeasureScaling(probes[i])
				return scalingResult{st: st, err: err}, nil
			})
		if err != nil {
			return nil, err // unreachable: tasks never fail, ctx never cancels
		}
	} else {
		results = make([]scalingResult, len(probes))
		for i, c := range probes {
			results[i].st, results[i].err = meas.MeasureScaling(c)
			if results[i].err != nil {
				results = results[:i+1]
				break
			}
		}
	}
	scSamples := make([]ScalingSample, 0, len(probes))
	for i, c := range probes {
		if i >= len(results) {
			break
		}
		if err := results[i].err; err != nil {
			return nil, fmt.Errorf("core: scaling probe at %d instances: %w", c, err)
		}
		st := results[i].st
		scSamples = append(scSamples, ScalingSample{Instances: c, ScalingSec: st})
		ov.ScalingProbeSec += st
		// No-op probe functions still pay per-request and a 100 ms sliver.
		ov.ScalingProbeUSD += float64(c) * (0.1*opts.RatePerInstanceSec + 2e-7)
	}
	return scSamples, nil
}
