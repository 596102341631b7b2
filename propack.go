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
// The heavy lifting lives in the internal packages; this package re-exports
// the stable surface: platform configurations, the benchmark workloads, the
// analytical models, the optimizer, and the execution/measurement helpers.
package propack

import (
	"errors"

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
	// Planner is the one planner behind every planning question, with a
	// per-concurrency table cache so repeated planning calls (weight sweeps,
	// quantile sweeps, QoS searches) amortize the model evaluation. Answer
	// is the paper's question; the other methods ask what a request cannot
	// (another quantile, an instance cap, the stability band, the modeled
	// tail). Models.Answer, Models.PlanFor and GridModels.Answer are the
	// same methods without the cache, so results are bit-identical.
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
	// planning: a core request's Failure, answered by Models.Answer (see
	// AdviseReliable).
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
// AdviseJoint's JointRecommendation.Grid): the degree-only questions plan at
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
// objective weights.
func Advise(cfg PlatformConfig, d Demand, c int, w Weights) (Recommendation, error) {
	rec, m, err := advise(cfg, d, core.Request{C: c, Weights: w}, false)
	return Recommendation{Plan: rec.Plan.Plan, Models: m, Overhead: rec.Overhead}, err
}

// AdviseReliable is Advise for an unreliable platform: the same modeling
// pipeline, but the optimizer runs on the expected service time and expense
// under the given failure model — a crash at packing degree P loses all P
// functions' work and re-runs (and re-bills) the whole instance, so the
// recommended degree drops as the crash rate rises. With a zero FailureModel
// it agrees exactly with Advise.
func AdviseReliable(cfg PlatformConfig, d Demand, c int, w Weights, f FailureModel) (Recommendation, error) {
	rec, m, err := advise(cfg, d, core.Request{C: c, Weights: w, Failure: f}, false)
	return Recommendation{Plan: rec.Plan.Plan, Models: m, Overhead: rec.Overhead}, err
}

// AdviseQoS is Advise with a tail-latency bound: the objective weights are
// chosen per Sec. 2.6 so the modeled tail service time stays within qosSec.
// It returns the chosen weights alongside the recommendation.
func AdviseQoS(cfg PlatformConfig, d Demand, c int, qosSec float64) (Recommendation, Weights, error) {
	rec, m, err := advise(cfg, d, core.Request{C: c, Weights: Balanced(), QoSSec: qosSec}, true)
	return Recommendation{Plan: rec.Plan.Plan, Models: m, Overhead: rec.Overhead}, rec.Plan.Weights, err
}

// JointRecommendation is what AdviseJoint returns: the joint (degree,
// memory) plan plus the full grid for auditing and re-planning.
type JointRecommendation struct {
	Plan     JointPlan
	Grid     GridModels
	Overhead Overhead
}

// AdviseJoint is Advise over a memory-size grid: the modeling pipeline runs
// once per size (interference depends on the CPU share, which scales with
// memory; the scaling probes run once, at the largest size), and the
// planner searches packing degree and memory size jointly — Lambda's
// power-tuning knob folded into Eq. 7. sizesMB must be strictly increasing
// and within the platform's instance memory.
func AdviseJoint(cfg PlatformConfig, d Demand, c int, w Weights, sizesMB []float64) (JointRecommendation, error) {
	rec, _, err := advise(cfg, d, core.Request{C: c, Weights: w, SizesMB: sizesMB}, false)
	return rec, err
}

// AdviseJointQoS is AdviseJoint with a tail-latency bound: the weights are
// chosen per Sec. 2.6 over the whole grid, so a larger memory size can buy
// feasibility that no packing degree at the default size could.
func AdviseJointQoS(cfg PlatformConfig, d Demand, c int, qosSec float64, sizesMB []float64) (JointRecommendation, Weights, error) {
	rec, _, err := advise(cfg, d, core.Request{C: c, Weights: Balanced(), QoSSec: qosSec, SizesMB: sizesMB}, true)
	return rec, rec.Plan.Weights, err
}

// advise is the one profile-then-answer sequence behind every Advise
// variant: the request is judged before any probe runs, the application is
// profiled — once, or once per memory size of the request's grid — and the
// uncached planner answers. The fixed-size models come back beside the
// recommendation; a grid comes back in it. bounded marks the QoS variants:
// their question is the bound, so like /v1/qos they refuse a bound of 0,
// which a Request reads as none. Their weights are the doors' default, which
// the bound replaces.
func advise(cfg PlatformConfig, d Demand, r core.Request, bounded bool) (rec JointRecommendation, m Models, err error) {
	if err = r.Validate(); err == nil && bounded && r.QoSSec == 0 {
		err = errors.New("propack: a QoS bound of 0 s is no bound")
	}
	switch {
	case err != nil:
	case len(r.SizesMB) == 0:
		meas := &core.SimMeasurer{Config: cfg, Demand: d, Seed: 1}
		if m, _, _, rec.Overhead, err = core.BuildModels(meas, core.ProfileOptionsFor(cfg, d)); err == nil {
			rec.Plan, err = m.Answer(r)
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
		return JointRecommendation{}, Models{}, err
	}
	return rec, m, nil
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
