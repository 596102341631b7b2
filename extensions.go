package propack

import (
	"repro/internal/core"
	"repro/internal/orchestrator"
)

// Extensions beyond the paper's core system, built along its Sec. 5
// discussion: heterogeneous (cross-application) packing, multi-stage
// workflows, and model persistence for overhead amortization.

type (
	// MixedApp is one application's share of a heterogeneous job.
	MixedApp = orchestrator.MixedApp
	// MixedPlan is the heterogeneous packing recommendation.
	MixedPlan = core.MixedPlan
	// MixedRun is the outcome of a heterogeneous ProPack execution.
	MixedRun = orchestrator.MixedRun
	// Stage is one step of a multi-stage workflow.
	Stage = orchestrator.Stage
	// PipelineResult aggregates a workflow execution.
	PipelineResult = orchestrator.PipelineResult
	// Registry persists fitted models across runs.
	Registry = core.Registry
)

// NewRegistry opens (creating if needed) a model registry rooted at dir.
// Cached models let the probing overhead amortize across runs, as the
// paper's Sec. 2.2 argues it should.
func NewRegistry(dir string) (*Registry, error) { return core.NewRegistry(dir) }

// RunMixed plans and executes a heterogeneous job: several applications
// spawning together, with instances that may host functions of different
// applications when the fitted models say mixing helps (Sec. 5 extension).
func RunMixed(cfg PlatformConfig, apps []MixedApp, w Weights, seed int64) (MixedRun, error) {
	job, err := orchestrator.PlanMixedJob(cfg, apps, w, seed)
	if err != nil {
		return MixedRun{}, err
	}
	m, err := job.Run(job.Plan.BinCounts, nil, "mixed")
	if err != nil {
		return MixedRun{}, err
	}
	return MixedRun{Plan: job.Plan, Metrics: m, Overhead: job.Overhead}, nil
}

// RunPipeline executes a multi-stage workflow (bursts separated by
// barriers), letting ProPack pick each stage's packing degree where
// Stage.Degree is 0.
func RunPipeline(cfg PlatformConfig, stages []Stage, w Weights, seed int64) (PipelineResult, error) {
	return orchestrator.RunPipeline(cfg, stages, w, seed)
}
