package orchestrator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Heterogeneous jobs: several applications spawning their bursts together
// (the Sec. 5 extension). PlanMixedJob judges, profiles and plans a job
// once; the MixedJob it returns runs any bin-count matrix over the job's
// apps as one burst, and Compare runs the three deployment shapes on one
// control plane:
//
//   - unpacked — every function in its own instance (baseline):
//     core.SegregatedBins at degree 1;
//   - per-app  — each app packed at its own ProPack degree, but instances
//     host a single application (what stock ProPack would do):
//     core.SegregatedBins at core.SoloDegrees;
//   - mixed    — cross-application packing planned by core.PlanMixed with
//     the compositional Eq. 1 model.

// MixedApp is one application's share of a heterogeneous job.
type MixedApp struct {
	Workload workload.Workload
	Count    int
}

// buildApps profiles every application on the platform and returns the
// core.App descriptors plus the shared platform scaling model and the
// accumulated modeling overhead.
func buildApps(cfg platform.Config, apps []MixedApp, seed int64) ([]core.App, core.ScalingModel, core.Overhead, error) {
	if len(apps) == 0 {
		return nil, core.ScalingModel{}, core.Overhead{}, fmt.Errorf("orchestrator: empty app set")
	}
	p := profiler{cfg: cfg}
	out := make([]core.App, len(apps))
	for i, a := range apps {
		d := a.Workload.Demand()
		models, err := p.models(d, seed+int64(i))
		if err != nil {
			return nil, core.ScalingModel{}, core.Overhead{}, fmt.Errorf("orchestrator: profiling %s: %w", a.Workload.Name(), err)
		}
		out[i] = core.App{
			Name:     a.Workload.Name(),
			MemoryMB: d.MemoryMB,
			Count:    a.Count,
			ET:       models.ET,
		}
	}
	return out, *p.scaling, p.overhead, nil
}

// MixedRun is the outcome of a heterogeneous ProPack execution.
type MixedRun struct {
	Plan     core.MixedPlan
	Metrics  trace.Metrics
	Overhead core.Overhead
}

// probeCrossDiscount measures the cross-application contention discount by
// running one small mixed instance per app pair (k functions of each) and
// inverting the compositional Eq. 1 prediction. The probes' execution time
// is charged to the overhead like any other ProPack probe.
func probeCrossDiscount(cfg platform.Config, apps []MixedApp, coreApps []core.App,
	seed int64, overhead *core.Overhead) (float64, error) {
	const pairK = 4
	rate := cfg.MemoryGB() * cfg.GBSecondUSD
	var sum float64
	var pairs int
	for i := 0; i < len(apps); i++ {
		for j := i + 1; j < len(apps); j++ {
			var bin platform.Bin
			for n := 0; n < pairK; n++ {
				bin.Demands = append(bin.Demands,
					apps[i].Workload.Demand(), apps[j].Workload.Demand())
			}
			if !cfg.Shape.FitsMemory(bin.Demands) {
				continue // pair probe impossible; fall back to no discount
			}
			var etSum float64
			const trials = 3
			for t := 0; t < trials; t++ {
				res, err := platform.RunMixed(cfg, platform.MixedBurst{
					Bins: []platform.Bin{bin}, Seed: seed + int64(100*i+10*j+t),
				})
				if err != nil {
					return 0, fmt.Errorf("orchestrator: pair probe %s+%s: %w",
						apps[i].Workload.Name(), apps[j].Workload.Name(), err)
				}
				et := res.MeanExecSeconds()
				etSum += et
				overhead.ExecProbeSec += et
				overhead.ExecProbeUSD += et * rate
			}
			disc, err := core.EstimateCrossDiscount(coreApps[i], coreApps[j], pairK, etSum/trials)
			if err != nil {
				return 0, err
			}
			sum += disc
			pairs++
		}
	}
	if pairs == 0 {
		return 0, nil
	}
	return sum / float64(pairs), nil
}

// MixedJob is a heterogeneous job judged, profiled and planned once: its
// platform, apps and seed, core.PlanMixed's plan, each app's single-app
// ProPack degree (core.SoloDegrees: its Eq. 7 optimum up to its segregated
// ceiling, which the execution limit bounds as well as memory), and the
// modeling overhead of the profiling and pair probes. Every deployment of
// the job runs from it.
type MixedJob struct {
	Config   platform.Config
	Apps     []MixedApp
	Seed     int64
	Plan     core.MixedPlan
	Degrees  []int
	Overhead core.Overhead
}

// PlanMixedJob runs the heterogeneous planning pipeline — the count check,
// per-app profiling, cross-discount pair probes, core.PlanMixed — without
// executing the result. Counts are judged by core.CheckMixedCounts before
// anything is profiled or allocated per function. The serve daemon's
// /v1/mixed endpoint is plan-only: callers inspect the recommendation (and
// its modeling overhead) before committing a burst.
func PlanMixedJob(cfg platform.Config, apps []MixedApp, w core.Weights, seed int64) (MixedJob, error) {
	counts := make([]int, len(apps))
	for i, a := range apps {
		counts[i] = a.Count
	}
	if err := core.CheckMixedCounts(counts...); err != nil {
		return MixedJob{}, err
	}
	coreApps, scaling, overhead, err := buildApps(cfg, apps, seed)
	if err != nil {
		return MixedJob{}, err
	}
	disc, err := probeCrossDiscount(cfg, apps, coreApps, seed, &overhead)
	if err != nil {
		return MixedJob{}, err
	}
	opts := core.MixedPlanOptions{
		InstanceMemoryMB:   cfg.Shape.MemoryMB,
		MaxExecSec:         cfg.MaxExecSec,
		Weights:            w,
		Scaling:            scaling,
		RatePerInstanceSec: cfg.MemoryGB() * cfg.GBSecondUSD,
		CrossDiscount:      disc,
	}
	plan, err := core.PlanMixed(coreApps, opts)
	if err != nil {
		return MixedJob{}, err
	}
	degrees := core.SoloDegrees(coreApps, opts)
	if degrees == nil {
		return MixedJob{}, fmt.Errorf("orchestrator: some app fits no packing degree on %s", cfg.Name)
	}
	return MixedJob{Config: cfg, Apps: apps, Seed: seed, Plan: plan, Degrees: degrees, Overhead: overhead}, nil
}

// Run executes a bin-count matrix as one burst at the job's seed —
// binCounts[b][k] functions of app k in instance b — and returns its
// metrics. rec receives the burst's observability records under label (nil
// disables recording); planning probes are never recorded.
func (j MixedJob) Run(binCounts [][]int, rec obs.Recorder, label string) (trace.Metrics, error) {
	bins := make([]platform.Bin, 0, len(binCounts))
	for _, counts := range binCounts {
		var bin platform.Bin
		for k, n := range counts {
			d := j.Apps[k].Workload.Demand()
			for i := 0; i < n; i++ {
				bin.Demands = append(bin.Demands, d)
			}
		}
		if len(bin.Demands) > 0 {
			bins = append(bins, bin)
		}
	}
	res, err := platform.RunMixed(j.Config, platform.MixedBurst{Bins: bins, Seed: j.Seed, Recorder: rec, Label: label})
	if err != nil {
		return trace.Metrics{}, err
	}
	return trace.FromResult(res), nil
}

// Compare runs the job's three deployments on one control plane, in this
// order and under these labels: every function in its own instance
// ("unpacked"), each app packed alone at its Degrees ("per-app"), and the
// plan ("mixed"). Each is one burst recorded into rec.
func (j MixedJob) Compare(rec obs.Recorder) (unpacked, perApp, mixed trace.Metrics, err error) {
	counts := make([]int, len(j.Apps))
	ones := make([]int, len(j.Apps))
	for k, a := range j.Apps {
		counts[k], ones[k] = a.Count, 1
	}
	if unpacked, err = j.Run(core.SegregatedBins(counts, ones), rec, "unpacked"); err != nil {
		return
	}
	if perApp, err = j.Run(core.SegregatedBins(counts, j.Degrees), rec, "per-app"); err != nil {
		return
	}
	mixed, err = j.Run(j.Plan.BinCounts, rec, "mixed")
	return
}
