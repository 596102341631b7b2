// Package baseline implements the competing techniques ProPack is
// evaluated against:
//
//   - NoPacking — the traditional one-function-per-instance deployment
//     (packing degree 1), the paper's normalization baseline;
//   - SerialBatching — the "intuitive solution" of spawning smaller batches
//     serially, which trades scaling time for turnaround time (Sec. 1);
//   - Staggered — the latency-hiding alternative of spacing out
//     invocations, rejected in Sec. 4 for its inserted delays;
//   - Pywren — the state-of-the-art serverless workload manager (Jonas et
//     al.), modeled through its headline optimizations: warm-instance
//     reuse (cold starts avoided for a pool of reusable instances) and
//     optimized data movement;
//   - Oracle — exhaustive brute-force search over every packing degree,
//     the upper bound ProPack's analytical model is judged against.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/interfere"
	"repro/internal/orchestrator"
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

// NoPacking is the traditional deployment: every function in its own
// instance, all spawned at once.
type NoPacking struct{}

// Name implements Strategy.
func (NoPacking) Name() string { return "No Packing" }

// Execute implements Strategy.
func (NoPacking) Execute(cfg platform.Config, d interfere.Demand, c int, seed int64) (trace.Metrics, error) {
	return orchestrator.Execute(cfg, d, c, 1, seed)
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

// Pywren models the Jonas et al. workload manager: a pool of WarmInstances
// reusable instances avoids cold starts for part of the burst, and its
// optimized data-movement path trims the I/O phase of every function. It
// does not pack — which is why the scaling bottleneck survives at high
// concurrency (paper Fig. 19).
type Pywren struct {
	// WarmInstances is the reuse-pool size; zero means the default (200).
	WarmInstances int
	// IOSavings is the fractional I/O-time reduction from Pywren's data
	// movement optimizations; zero means the default (0.2).
	IOSavings float64
}

// Name implements Strategy.
func (Pywren) Name() string { return "Pywren" }

// Execute implements Strategy.
func (p Pywren) Execute(cfg platform.Config, d interfere.Demand, c int, seed int64) (trace.Metrics, error) {
	warm := p.WarmInstances
	if warm == 0 {
		warm = 200
	}
	if warm < 0 {
		return trace.Metrics{}, fmt.Errorf("baseline: negative warm pool %d", warm)
	}
	sav := p.IOSavings
	if sav == 0 {
		sav = 0.2
	}
	if sav < 0 || sav >= 1 {
		return trace.Metrics{}, fmt.Errorf("baseline: I/O savings %g outside [0,1)", sav)
	}
	tuned := d
	tuned.IOSeconds *= 1 - sav
	if warm > c {
		warm = c
	}
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

// ErrNoFeasibleDegree is returned by Oracle when even degree 1 cannot run.
var ErrNoFeasibleDegree = errors.New("baseline: no feasible packing degree")
