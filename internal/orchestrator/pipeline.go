package orchestrator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interfere"
	"repro/internal/platform"
	"repro/internal/trace"
)

// Multi-stage workflows: the paper's introduction motivates packing with
// "resource-intensive large-scale applications [that] are frequently broken
// down into multiple steps, where each of the steps is processed in
// parallel by a large number of serverless functions". A Pipeline is that
// shape — a sequence of bursts with a barrier between consecutive stages
// (stage n+1 consumes stage n's output, like Sort's map→reduce).

// Stage is one step of a pipeline.
type Stage struct {
	// Name labels the stage in results.
	Name string
	// Demand is the per-function resource profile of this stage.
	Demand interfere.Demand
	// Count is the stage's concurrency.
	Count int
	// Degree is the packing degree; 0 lets ProPack choose per stage.
	Degree int
}

// PipelineResult aggregates a pipeline execution.
type PipelineResult struct {
	// Stages holds each stage's own metrics (times are stage-local).
	Stages []trace.Metrics
	// Degrees are the packing degrees actually used per stage.
	Degrees []int
	// TotalServiceSec is the end-to-end makespan: the sum of stage service
	// times plus each stage's initial provisioning (stages are separated by
	// barriers, so they do not overlap).
	TotalServiceSec float64
	// ExpenseUSD is the summed bill across stages, including ProPack's
	// modeling overhead for stages it planned.
	ExpenseUSD float64
	// Overhead is the accumulated modeling cost.
	Overhead core.Overhead
}

// RunPipeline executes the stages in order on the platform. Stages with
// Degree 0 are planned by ProPack under the given weights; the platform
// scaling model is fitted once and shared across stages.
func RunPipeline(cfg platform.Config, stages []Stage, w core.Weights, seed int64) (PipelineResult, error) {
	if len(stages) == 0 {
		return PipelineResult{}, fmt.Errorf("orchestrator: empty pipeline")
	}
	var out PipelineResult
	p := profiler{cfg: cfg}
	for si, st := range stages {
		if st.Count < 1 {
			return PipelineResult{}, fmt.Errorf("orchestrator: stage %q: count %d < 1", st.Name, st.Count)
		}
		degree := st.Degree
		if degree == 0 {
			models, err := p.models(st.Demand, seed+int64(si))
			if err != nil {
				return PipelineResult{}, fmt.Errorf("orchestrator: planning stage %q: %w", st.Name, err)
			}
			plan, err := models.PlanFor(st.Count, w)
			if err != nil {
				return PipelineResult{}, err
			}
			degree = plan.Degree
		} else if degree < 0 {
			return PipelineResult{}, fmt.Errorf("orchestrator: stage %q: negative degree", st.Name)
		}
		m, err := Execute(cfg, st.Demand, st.Count, degree, seed+int64(si)*101)
		if err != nil {
			return PipelineResult{}, fmt.Errorf("orchestrator: stage %q: %w", st.Name, err)
		}
		out.Stages = append(out.Stages, m)
		out.Degrees = append(out.Degrees, degree)
		// Stage makespan from its invocation: first start is its
		// provisioning delay; TotalService measures from first start.
		out.TotalServiceSec += m.TotalService
		out.ExpenseUSD += m.ExpenseUSD
	}
	out.Overhead = p.overhead
	out.ExpenseUSD += out.Overhead.TotalUSD()
	return out, nil
}
