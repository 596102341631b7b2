// Package livemeasure fits ProPack's interference model (Eq. 1) to *real*
// measurements on the local machine: the workload's actual Go kernel runs
// packed as goroutines on a bounded core budget, and the wall times feed
// the same fit the simulator path uses. This is the closest an offline
// build gets to the paper's profiling phase on a live platform.
//
// Scaling time cannot be measured locally (it is a property of a cloud
// control plane), so local profiling only produces the Eq. 1 side; combine
// it with a platform's fitted ScalingModel for planning.
package livemeasure

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Options configures a local profiling run.
type Options struct {
	// Cores bounds the concurrent goroutines, emulating the instance's
	// vCPU budget. Must be ≥ 1.
	Cores int
	// MaxDegree bounds the sampled packing degrees. Must be ≥ 1.
	MaxDegree int
	// Trials averages repeated measurements per degree; 0 means 3.
	Trials int
	// Seed derives the workloads' deterministic inputs.
	Seed int64
}

// Profile runs the workload's real kernel at alternate packing degrees
// (the Sec. 2.1 sampling policy) and fits Eq. 1 to the measured wall
// times, with the workload demand's MemoryMB as Eq. 1's per-function
// footprint. It returns the fitted model and the raw samples. Probes run
// one at a time: concurrent probes would contend for the very cores whose
// wall time is being measured and skew the fit.
func Profile(w workload.Workload, opts Options) (core.ETModel, []core.ETSample, error) {
	if w == nil {
		return core.ETModel{}, nil, fmt.Errorf("livemeasure: nil workload")
	}
	if opts.Cores < 1 {
		return core.ETModel{}, nil, fmt.Errorf("livemeasure: cores %d < 1", opts.Cores)
	}
	if opts.MaxDegree < 1 {
		return core.ETModel{}, nil, fmt.Errorf("livemeasure: max degree %d < 1", opts.MaxDegree)
	}
	trials := opts.Trials
	if trials == 0 {
		trials = 3
	}
	if trials < 1 {
		return core.ETModel{}, nil, fmt.Errorf("livemeasure: trials %d < 1", trials)
	}
	mfuncGB := w.Demand().MemoryMB / 1024
	if mfuncGB <= 0 {
		return core.ETModel{}, nil, fmt.Errorf("livemeasure: non-positive Mfunc")
	}

	degrees := core.SampleDegrees(opts.MaxDegree)
	samples := make([]core.ETSample, len(degrees))
	for di, degree := range degrees {
		var sum float64
		for t := 0; t < trials; t++ {
			res, err := workload.RunPacked(w, degree, opts.Cores,
				opts.Seed+int64(1000*degree+t))
			if err != nil {
				return core.ETModel{}, nil, fmt.Errorf("livemeasure: degree %d: %w", degree, err)
			}
			sum += res.Wall.Seconds()
		}
		samples[di] = core.ETSample{Degree: degree, ETSec: sum / float64(trials)}
	}
	model, err := core.FitET(samples, mfuncGB, core.FitETOptions{})
	if err != nil {
		return core.ETModel{}, nil, err
	}
	return model, samples, nil
}
