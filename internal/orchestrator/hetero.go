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
// (the Sec. 5 extension). Three deployment shapes share one control plane,
// and each is a bin-count matrix that runBins executes as one burst:
//
//   - ExecuteJointUnpacked — every function in its own instance (baseline):
//     core.SegregatedBins at degree 1;
//   - ExecutePerAppPacked  — each app packed at its own ProPack degree, but
//     instances host a single application (what stock ProPack would do):
//     core.SegregatedBins at core.SoloDegrees;
//   - RunMixedProPack      — cross-application packing planned by
//     core.PlanMixed with the compositional Eq. 1 model.

// MixedApp is one application's share of a heterogeneous job.
type MixedApp struct {
	Workload workload.Workload
	Count    int
}

// jobCounts is the job's per-app counts, judged by core.CheckMixedCounts:
// every door that profiles or appends per function judges the job with it
// first.
func jobCounts(apps []MixedApp) ([]int, error) {
	counts := make([]int, len(apps))
	for i, a := range apps {
		counts[i] = a.Count
	}
	return counts, core.CheckMixedCounts(counts...)
}

// buildApps profiles every application on the platform and returns the
// core.App descriptors plus the shared platform scaling model and the
// accumulated modeling overhead.
func buildApps(cfg platform.Config, apps []MixedApp, seed int64) ([]core.App, core.ScalingModel, core.Overhead, error) {
	if len(apps) == 0 {
		return nil, core.ScalingModel{}, core.Overhead{}, fmt.Errorf("orchestrator: empty app set")
	}
	out := make([]core.App, len(apps))
	var scaling core.ScalingModel
	var total core.Overhead
	for i, a := range apps {
		meas := &core.SimMeasurer{Config: cfg, Demand: a.Workload.Demand(), Seed: seed + int64(i)}
		opts := core.ProfileOptionsFor(cfg, a.Workload.Demand())
		if i > 0 {
			// The scaling model is a platform property — probe it once.
			opts.ScalingProbes = []int{100, 1000, 3000}
		}
		models, _, _, ov, err := core.BuildModels(meas, opts)
		if err != nil {
			return nil, core.ScalingModel{}, core.Overhead{}, fmt.Errorf("orchestrator: profiling %s: %w", a.Workload.Name(), err)
		}
		if i == 0 {
			scaling = models.Scaling
		}
		total.Add(ov)
		out[i] = core.App{
			Name:     a.Workload.Name(),
			MemoryMB: a.Workload.Demand().MemoryMB,
			Count:    a.Count,
			ET:       models.ET,
		}
	}
	return out, scaling, total, nil
}

// runBins executes a bin-count matrix as one burst — binCounts[b][k]
// functions of apps[k] in instance b — and returns its metrics. rec
// receives the burst's observability records under label (nil disables
// recording).
func runBins(cfg platform.Config, apps []MixedApp, binCounts [][]int, seed int64, rec obs.Recorder, label string) (trace.Metrics, error) {
	bins := make([]platform.Bin, 0, len(binCounts))
	for _, counts := range binCounts {
		var bin platform.Bin
		for k, n := range counts {
			d := apps[k].Workload.Demand()
			for j := 0; j < n; j++ {
				bin.Demands = append(bin.Demands, d)
			}
		}
		if len(bin.Demands) > 0 {
			bins = append(bins, bin)
		}
	}
	res, err := platform.RunMixed(cfg, platform.MixedBurst{Bins: bins, Seed: seed, Recorder: rec, Label: label})
	if err != nil {
		return trace.Metrics{}, err
	}
	return trace.FromResult(res), nil
}

// mixedOptions is the platform's side of a mixed plan: its instance
// memory, execution limit and price, with the job's scaling model, weights
// and cross-application discount.
func mixedOptions(cfg platform.Config, w core.Weights, scaling core.ScalingModel, disc float64) core.MixedPlanOptions {
	return core.MixedPlanOptions{
		InstanceMemoryMB:   cfg.Shape.MemoryMB,
		MaxExecSec:         cfg.MaxExecSec,
		Weights:            w,
		Scaling:            scaling,
		RatePerInstanceSec: cfg.MemoryGB() * cfg.GBSecondUSD,
		CrossDiscount:      disc,
	}
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

// PlanMixedJob runs the heterogeneous planning pipeline — per-app
// profiling, cross-discount pair probes, core.PlanMixed — without executing
// the result. The serve daemon's /v1/mixed endpoint is plan-only: callers
// inspect the recommendation (and its modeling overhead) before committing
// a burst.
func PlanMixedJob(cfg platform.Config, apps []MixedApp, w core.Weights, seed int64) (core.MixedPlan, core.Overhead, error) {
	if _, err := jobCounts(apps); err != nil {
		return core.MixedPlan{}, core.Overhead{}, err
	}
	coreApps, scaling, overhead, err := buildApps(cfg, apps, seed)
	if err != nil {
		return core.MixedPlan{}, core.Overhead{}, err
	}
	disc, err := probeCrossDiscount(cfg, apps, coreApps, seed, &overhead)
	if err != nil {
		return core.MixedPlan{}, core.Overhead{}, err
	}
	plan, err := core.PlanMixed(coreApps, mixedOptions(cfg, w, scaling, disc))
	if err != nil {
		return core.MixedPlan{}, core.Overhead{}, err
	}
	return plan, overhead, nil
}

// RunMixedProPack plans cross-application packing and executes it. The
// final burst's spans and events flow into rec (nil disables recording);
// planning probes are never recorded.
func RunMixedProPack(cfg platform.Config, apps []MixedApp, w core.Weights, seed int64, rec obs.Recorder) (MixedRun, error) {
	plan, overhead, err := PlanMixedJob(cfg, apps, w, seed)
	if err != nil {
		return MixedRun{}, err
	}
	m, err := runBins(cfg, apps, plan.BinCounts, seed, rec, "mixed")
	if err != nil {
		return MixedRun{}, err
	}
	return MixedRun{Plan: plan, Metrics: m, Overhead: overhead}, nil
}

// ExecutePerAppPacked runs the job with each application packed at its own
// single-app ProPack degree (core.SoloDegrees: each app's Eq. 7 optimum up
// to its segregated ceiling, which the execution limit bounds as well as
// memory) — instances never mix applications, but all instances share one
// invocation burst (and its control-plane contention). rec receives the
// burst's observability records (nil disables recording).
func ExecutePerAppPacked(cfg platform.Config, apps []MixedApp, w core.Weights, seed int64, rec obs.Recorder) (trace.Metrics, []int, error) {
	counts, err := jobCounts(apps)
	if err != nil {
		return trace.Metrics{}, nil, err
	}
	coreApps, scaling, _, err := buildApps(cfg, apps, seed)
	if err != nil {
		return trace.Metrics{}, nil, err
	}
	degrees := core.SoloDegrees(coreApps, mixedOptions(cfg, w, scaling, 0))
	if degrees == nil {
		return trace.Metrics{}, nil, fmt.Errorf("orchestrator: some app fits no packing degree on %s", cfg.Name)
	}
	m, err := runBins(cfg, apps, core.SegregatedBins(counts, degrees), seed, rec, "per-app")
	if err != nil {
		return trace.Metrics{}, nil, err
	}
	return m, degrees, nil
}

// ExecuteJointUnpacked runs every function of every application in its own
// instance, all in one burst — the traditional deployment of a
// heterogeneous job. rec receives the burst's observability records (nil
// disables recording).
func ExecuteJointUnpacked(cfg platform.Config, apps []MixedApp, seed int64, rec obs.Recorder) (trace.Metrics, error) {
	counts, err := jobCounts(apps)
	if err != nil {
		return trace.Metrics{}, err
	}
	ones := make([]int, len(apps))
	for k := range ones {
		ones[k] = 1
	}
	return runBins(cfg, apps, core.SegregatedBins(counts, ones), seed, rec, "unpacked")
}
