// Package propack is the public face of this repository: a Go
// implementation of ProPack ("ProPack: Executing Concurrent Serverless
// Functions Faster and Cheaper", HPDC 2023), a user-side serverless
// workload manager that packs multiple logical functions into each function
// instance to defeat the scaling-time bottleneck of high-concurrency
// serverless computing — making bursts of thousands of functions both
// faster and cheaper.
//
// # Quick start
//
//	cfg := propack.AWSLambda()
//	app := propack.VideoWorkload()
//	rec, err := propack.Advise(cfg, app.Demand(), 5000, propack.Balanced())
//	// rec.Plan.Degree is the packing degree to use;
//	// run it (simulated here, Step Functions in production):
//	metrics, err := propack.Run(cfg, app.Demand(), 5000, rec.Plan.Degree, 1)
//
// Advise asks the plain weighted question. AdviseRequest asks any other as a
// Request: under a p95 bound, a failure model, an instance cap, at another
// service quantile, or over a memory grid.
//
// The heavy lifting lives in the internal packages; this package re-exports
// the stable surface: platform configurations, the benchmark workloads, the
// analytical models, the optimizer, and the execution/measurement helpers.
package propack

import (
	"repro/internal/core"
	"repro/internal/funcx"
	"repro/internal/interfere"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core model and planning types.
type (
	// Demand is the per-function resource profile of an application.
	Demand = interfere.Demand
	// Models bundles ProPack's fitted analytical models (Eqs. 1–2) with
	// the billing rate; it predicts service time and expense and chooses
	// optimal packing degrees (Eqs. 3–7).
	Models = core.Models
	// ETModel is Eq. 1, the packing-interference model.
	ETModel = core.ETModel
	// ScalingModel is Eq. 2, the platform scaling-time model.
	ScalingModel = core.ScalingModel
	// Weights are the objective weights of Eq. 7.
	Weights = core.Weights
	// Plan is ProPack's recommendation for one concurrency level.
	Plan = core.Plan
	// Overhead accounts the resources spent building the models.
	Overhead = core.Overhead
	// Metrics are the paper's figures of merit for one run.
	Metrics = trace.Metrics
	// PlatformConfig describes a serverless platform (control-plane
	// behaviour, instance shape, billing).
	PlatformConfig = platform.Config
	// Workload is one of the paper's benchmark applications.
	Workload = workload.Workload
	// QoSOptions configures the Sec. 2.6 tail-latency-bounded planning.
	QoSOptions = core.QoSOptions
	// Request is the planning question AdviseRequest and Planner.Answer
	// answer: a concurrency and weights, and optionally a QoS bound, a
	// failure model, a memory grid, a service quantile or an instance cap.
	Request = core.Request
	// Planner is the one planner behind every planning question, with a
	// per-concurrency table cache so repeated planning calls (weight sweeps,
	// quantile sweeps, QoS searches) amortize the model evaluation. Answer
	// is the paper's question, asked as a Request. Models.Answer,
	// Models.PlanFor and GridModels.Answer are the same methods without the
	// cache, so results are bit-identical.
	Planner = core.Planner
	// DegreeTable is one memory size's row of the planner's cached
	// per-concurrency grid table: the memoized per-degree model vectors,
	// readable directly (Planner.Table) for custom degree scans.
	DegreeTable = core.DegreeTable
	// GridModels is the joint degree × memory model stack: one fitted
	// Models per memory size, sharing a single scaling model.
	GridModels = core.GridModels
	// SizeModels is one memory size's slot in a GridModels.
	SizeModels = core.SizeModels
	// SizeProbe is one memory size's probing setup for BuildGridModels.
	SizeProbe = core.SizeProbe
	// JointPlan is a Plan extended with the chosen memory size.
	JointPlan = core.JointPlan
	// FailureModel describes mid-execution crashes for reliability-aware
	// planning: a Request's Failure.
	FailureModel = core.FailureModel
	// Backoff is a retry policy (fixed, exponential, or decorrelated-jitter
	// schedule with attempt/time budgets) accepted by PlatformConfig.Retry
	// and localfaas jobs.
	Backoff = resilience.Backoff
	// Hedge is a quantile-based straggler-hedging policy accepted by
	// PlatformConfig.Hedge.
	Hedge = resilience.Hedge
)

// Backoff schedule kinds.
const (
	BackoffFixed        = resilience.Fixed
	BackoffExponential  = resilience.Exponential
	BackoffDecorrelated = resilience.Decorrelated
)

// NewPlanner builds a Planner over fitted models (e.g. from Advise's
// Recommendation.Models) for amortized repeated planning: the planner of
// the models' one-row grid.
var NewPlanner = core.NewPlanner

// NewJointPlanner builds a Planner over a memory-size grid (e.g. from
// AdviseRequest's JointRecommendation.Grid): the degree-only questions plan at
// the base (largest) size, and the joint ones (PlanJointFor, QoSPlanJoint,
// and Answer for a request naming the grid) search degree × memory.
var NewJointPlanner = core.NewJointPlanner

// BuildGridModels runs the modeling pipeline once per memory size (one
// scaling schedule shared across sizes) and assembles the joint grid.
var BuildGridModels = core.BuildGridModels

// GridProbesFor derives BuildGridModels probes from the simulator at each
// requested memory size.
var GridProbesFor = core.GridProbesFor

// Objective weight presets (Sec. 2.5).
var (
	// Balanced gives equal importance to service time and expense.
	Balanced = core.Balanced
	// ServiceOnly optimizes service time alone.
	ServiceOnly = core.ServiceOnly
	// ExpenseOnly optimizes expense alone.
	ExpenseOnly = core.ExpenseOnly
)

// Platform configurations evaluated in the paper.
var (
	// AWSLambda is the primary evaluation platform.
	AWSLambda = platform.AWSLambda
	// GoogleCloudFunctions and AzureFunctions are the other commercial
	// platforms (Fig. 21).
	GoogleCloudFunctions = platform.GoogleCloudFunctions
	AzureFunctions       = platform.AzureFunctions
	// FuncX is the on-premise HTC/HPC function-serving fabric (Fig. 18).
	FuncX = funcx.Config
)

// Benchmark workloads (Sec. 3). Each has a real Go kernel plus a calibrated
// resource demand for the datacenter simulator.
func VideoWorkload() Workload         { return workload.Video{} }
func SortWorkload() Workload          { return workload.Sort{} }
func StatelessCostWorkload() Workload { return workload.StatelessCost{} }
func SmithWatermanWorkload() Workload { return workload.SmithWaterman{} }
func XapianWorkload() Workload        { return workload.Xapian{} }

// Workloads returns the full benchmark suite.
func Workloads() []Workload { return workload.All() }

// Recommendation is what Advise returns: the plan plus everything needed to
// audit it.
type Recommendation struct {
	Plan     Plan
	Models   Models
	Overhead Overhead
}

// Advise runs ProPack's modeling pipeline (interference probes, scaling
// probes, model fits) against the platform and returns the optimal packing
// plan for running the application at concurrency c under the given
// objective weights: AdviseRequest's answer to the plain weighted request.
func Advise(cfg PlatformConfig, d Demand, c int, w Weights) (Recommendation, error) {
	rec, err := AdviseRequest(cfg, d, Request{C: c, Weights: w})
	return Recommendation{Plan: rec.Plan.Plan, Models: rec.Models, Overhead: rec.Overhead}, err
}

// JointRecommendation is what AdviseRequest returns: the plan plus the
// models it was answered from, for auditing and re-planning — the fixed-size
// Models for a degree-only request, the Grid for one naming memory sizes.
type JointRecommendation struct {
	Plan     JointPlan
	Models   Models
	Grid     GridModels
	Overhead Overhead
}

// AdviseRequest is the one profile-then-answer sequence: the request is
// judged before any probe runs, the application is profiled — once, or once
// per memory size of the request's grid (interference depends on the CPU
// share, which scales with memory; the scaling probes run once, at the
// largest size) — and the models answer the request (Planner.Answer). A
// failure model plans on the expected service time and expense under
// crash-and-retry; a QoS bound chooses the weights per Sec. 2.6 (they come
// back in Plan.Weights), and a bound of 0 is no bound.
func AdviseRequest(cfg PlatformConfig, d Demand, r Request) (JointRecommendation, error) {
	var rec JointRecommendation
	err := r.Validate()
	switch {
	case err != nil:
	case len(r.SizesMB) == 0:
		meas := &core.SimMeasurer{Config: cfg, Demand: d, Seed: 1}
		if rec.Models, _, _, rec.Overhead, err = core.BuildModels(meas, core.ProfileOptionsFor(cfg, d)); err == nil {
			rec.Plan, err = rec.Models.Answer(r)
		}
	default:
		var probes []core.SizeProbe
		if probes, err = core.GridProbesFor(cfg, d, r.SizesMB, 1); err == nil {
			rec.Grid, rec.Overhead, err = core.BuildGridModels(probes)
		}
		if err == nil {
			rec.Plan, err = rec.Grid.Answer(r)
		}
	}
	if err != nil {
		return JointRecommendation{}, err
	}
	return rec, nil
}

// Run executes c concurrent functions packed at the given degree on the
// platform (degree 1 is the traditional no-packing deployment) and returns
// the run's metrics.
func Run(cfg PlatformConfig, d Demand, c, degree int, seed int64) (Metrics, error) {
	return orchestrator.Execute(cfg, d, c, degree, seed)
}

// RunProPack is the end-to-end convenience: Advise + Run, with the modeling
// overhead folded into the reported expense exactly as the paper reports
// its results.
func RunProPack(cfg PlatformConfig, d Demand, c int, w Weights, seed int64) (Metrics, Plan, error) {
	run, err := orchestrator.RunProPack(cfg, d, c, w, seed)
	if err != nil {
		return Metrics{}, Plan{}, err
	}
	return run.MetricsWithOverhead(), run.Plan, nil
}
