// Package baseline implements the competing techniques ProPack is
// evaluated against. The paper's normalization baseline, the traditional
// one-function-per-instance deployment, is orchestrator.Execute at packing
// degree 1; the strategies here are the alternatives:
//
//   - SerialBatching — the "intuitive solution" of spawning smaller batches
//     serially, which trades scaling time for turnaround time (Sec. 1);
//   - Staggered — the latency-hiding alternative of spacing out
//     invocations, rejected in Sec. 4 for its inserted delays;
//   - Pywren — the state-of-the-art serverless workload manager (Jonas et
//     al.), modeled through its headline optimizations: warm-instance
//     reuse (cold starts avoided for a pool of reusable instances) and
//     optimized data movement.
//
// Sweep runs an application at every packing degree — the exhaustive search
// ProPack's analytical model is judged against in Figs. 8 and 15 — and
// SweepPlanner plans over its measured columns exactly as ProPack plans over
// its modeled ones.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/interfere"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Strategy executes C concurrent functions of an application on a platform
// and reports the run's metrics.
type Strategy interface {
	Name() string
	Execute(cfg platform.Config, d interfere.Demand, c int, seed int64) (trace.Metrics, error)
}

// SerialBatching spawns the C functions in ceil(C/BatchSize) serial waves:
// wave k+1 is invoked only after wave k has fully completed. Scaling time
// per wave is small, but turnaround suffers — the reason the paper rejects
// this approach for applications with turnaround as the figure of merit.
type SerialBatching struct {
	BatchSize int
}

// Name implements Strategy.
func (s SerialBatching) Name() string { return fmt.Sprintf("Serial Batching (%d)", s.BatchSize) }

// Execute implements Strategy.
func (s SerialBatching) Execute(cfg platform.Config, d interfere.Demand, c int, seed int64) (trace.Metrics, error) {
	if s.BatchSize < 1 {
		return trace.Metrics{}, fmt.Errorf("baseline: batch size %d < 1", s.BatchSize)
	}
	var (
		offset     float64 // virtual time at which the current wave starts
		firstStart = math.Inf(1)
		maxStart   float64
		ends       = make([]float64, 0, c) // one end time per function across waves
		expense    float64
		funcSec    float64
	)
	remaining := c
	wave := 0
	for remaining > 0 {
		n := s.BatchSize
		if remaining < n {
			n = remaining
		}
		res, err := platform.Run(cfg, platform.Burst{
			Demand: d, Functions: n, Degree: 1, Seed: seed + int64(wave),
		})
		if err != nil {
			return trace.Metrics{}, err
		}
		var waveEnd float64
		for i, n := 0, res.Instances(); i < n; i++ {
			start := offset + res.Start(i)
			end := offset + res.End(i)
			if start < firstStart {
				firstStart = start
			}
			if start > maxStart {
				maxStart = start
			}
			ends = append(ends, end)
			if end > waveEnd {
				waveEnd = end
			}
			funcSec += res.End(i) - res.Start(i)
		}
		expense += res.ExpenseUSD()
		offset = waveEnd // next wave only after this one completes
		remaining -= n
		wave++
	}
	return metricsFromSpans(cfg.Name, 1, c, firstStart, maxStart, ends, expense, funcSec), nil
}

// Staggered spaces invocations DelaySec apart instead of bursting, keeping
// the control plane uncongested at the price of an inserted delay of
// (C−1)·DelaySec before the last function even starts.
type Staggered struct {
	DelaySec float64
}

// Name implements Strategy.
func (s Staggered) Name() string { return fmt.Sprintf("Staggered (%.2gs)", s.DelaySec) }

// Execute implements Strategy.
func (s Staggered) Execute(cfg platform.Config, d interfere.Demand, c int, seed int64) (trace.Metrics, error) {
	if s.DelaySec <= 0 {
		return trace.Metrics{}, fmt.Errorf("baseline: stagger delay must be positive, got %g", s.DelaySec)
	}
	res, err := platform.Run(cfg, platform.Burst{
		Demand: d, Functions: c, Degree: 1, StaggerSec: s.DelaySec, Seed: seed,
	})
	if err != nil {
		return trace.Metrics{}, err
	}
	return trace.FromResult(res), nil
}

// Pywren models the Jonas et al. workload manager: a pool of 200 reusable
// instances avoids cold starts for part of the burst, and its optimized
// data-movement path trims the I/O phase of every function by 20%. It does
// not pack — which is why the scaling bottleneck survives at high
// concurrency (paper Fig. 19).
type Pywren struct{}

const (
	// pywrenWarmInstances is the reuse-pool size.
	pywrenWarmInstances = 200
	// pywrenIOSavings is the fractional I/O-time reduction from Pywren's
	// data movement optimizations.
	pywrenIOSavings = 0.2
)

// Name implements Strategy.
func (Pywren) Name() string { return "Pywren" }

// Execute implements Strategy.
func (Pywren) Execute(cfg platform.Config, d interfere.Demand, c int, seed int64) (trace.Metrics, error) {
	tuned := d
	tuned.IOSeconds *= 1 - pywrenIOSavings
	warm := min(pywrenWarmInstances, c)
	res, err := platform.Run(cfg, platform.Burst{
		Demand: tuned, Functions: c, Degree: 1, Warm: warm, Seed: seed,
	})
	if err != nil {
		return trace.Metrics{}, err
	}
	return trace.FromResult(res), nil
}

func metricsFromSpans(platformName string, degree, instances int,
	firstStart, maxStart float64, ends []float64, expense, funcSec float64) trace.Metrics {
	sort.Float64s(ends)
	q := func(p float64) float64 {
		return stats.QuantileSorted(ends, p) - firstStart
	}
	return trace.Metrics{
		Platform:      platformName,
		Degree:        degree,
		Instances:     instances,
		ScalingTime:   maxStart,
		TotalService:  ends[len(ends)-1] - firstStart,
		TailService:   q(95),
		MedianService: q(50),
		ExpenseUSD:    expense,
		FunctionHours: funcSec / 3600,
		MeanExecSec:   funcSec / float64(instances),
	}
}
