// Package orchestrator is the Step-Functions-style execution layer: it
// takes an application (a resource demand), a concurrency level, and a
// packing plan, fires the concurrent invocation burst on a platform, and
// reports the paper's metrics. It also hosts the full ProPack pipeline —
// profile, fit, recommend, execute — used by the experiments and examples,
// and the heterogeneous jobs of several applications, whose three
// deployments (unpacked, per-app packed, core.PlanMixed's plan) are each a
// bin-count matrix run through one executor.
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

// profiler fits the models of a multi-app job's applications (a pipeline's
// stages, a heterogeneous job's apps) on one platform, one after another,
// and accumulates their overhead. Eq. 2 is a platform property: the first
// app fits the scaling model, and every later one refreshes it cheaply at
// three probes and plans with the first fit.
type profiler struct {
	cfg      platform.Config
	scaling  *core.ScalingModel
	overhead core.Overhead
}

func (p *profiler) models(d interfere.Demand, seed int64) (core.Models, error) {
	meas := &core.SimMeasurer{Config: p.cfg, Demand: d, Seed: seed}
	opts := core.ProfileOptionsFor(p.cfg, d)
	if p.scaling != nil {
		opts.ScalingProbes = []int{100, 1000, 3000}
	}
	models, _, _, ov, err := core.BuildModels(meas, opts)
	if err != nil {
		return core.Models{}, err
	}
	if p.scaling == nil {
		s := models.Scaling
		p.scaling = &s
	} else {
		models.Scaling = *p.scaling
	}
	p.overhead.Add(ov)
	return models, nil
}
