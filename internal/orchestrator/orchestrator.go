// Package orchestrator is the Step-Functions-style execution layer: it
// takes an application (a resource demand), a concurrency level, and a
// packing plan, fires the concurrent invocation burst on a platform, and
// reports the paper's metrics. It also hosts the full ProPack pipeline —
// profile, fit, recommend, execute — used by the experiments and examples.
package orchestrator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/trace"
)

// Execute runs C functions packed at the given degree as one concurrent
// burst ("map state") and returns the run's metrics.
func Execute(cfg platform.Config, d interfere.Demand, c, degree int, seed int64) (trace.Metrics, error) {
	return ExecuteObserved(cfg, d, c, degree, seed, nil, "")
}

// ExecuteObserved is Execute with event-level observability: the burst's
// stage spans and fault events flow into rec (nil disables recording), and
// label names the burst in exported traces.
func ExecuteObserved(cfg platform.Config, d interfere.Demand, c, degree int, seed int64, rec obs.Recorder, label string) (trace.Metrics, error) {
	res, err := platform.Run(cfg, platform.Burst{
		Demand:    d,
		Functions: c,
		Degree:    degree,
		Seed:      seed,
		Recorder:  rec,
		Label:     label,
	})
	if err != nil {
		return trace.Metrics{}, err
	}
	return trace.FromResult(res), nil
}

// ProPackRun is the outcome of the full ProPack pipeline on one
// application/platform/concurrency triple.
type ProPackRun struct {
	Plan     core.Plan
	Models   core.Models
	Metrics  trace.Metrics
	Overhead core.Overhead
}

// MetricsWithOverhead returns the run metrics with ProPack's modeling
// overhead folded in, as the paper's reported results do ("our performance
// and cost results include all the overhead of building this analytical
// model").
func (r ProPackRun) MetricsWithOverhead() trace.Metrics {
	m := r.Metrics
	m.ExpenseUSD += r.Overhead.TotalUSD()
	m.FunctionHours += r.Overhead.ExecProbeSec / 3600
	return m
}

// RunProPack executes the complete ProPack pipeline: build the analytical
// models from probes, choose the optimal packing degree for the weights,
// run the burst, and account the modeling overhead.
func RunProPack(cfg platform.Config, d interfere.Demand, c int, w core.Weights, seed int64) (ProPackRun, error) {
	meas := &core.SimMeasurer{Config: cfg, Demand: d, Seed: seed}
	models, _, _, overhead, err := core.BuildModels(meas, core.ProfileOptionsFor(cfg, d))
	if err != nil {
		return ProPackRun{}, fmt.Errorf("orchestrator: modeling failed: %w", err)
	}
	plan, err := models.PlanFor(c, w)
	if err != nil {
		return ProPackRun{}, err
	}
	metrics, err := Execute(cfg, d, c, plan.Degree, seed)
	if err != nil {
		return ProPackRun{}, err
	}
	return ProPackRun{Plan: plan, Models: models, Metrics: metrics, Overhead: overhead}, nil
}
