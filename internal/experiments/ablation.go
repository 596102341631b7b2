package experiments

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Ablation exercises the design choices DESIGN.md calls out:
//
//  1. alternate-point sampling vs a full profiling sweep (probe cost vs
//     model error);
//  2. the order of the scaling-time polynomial (the paper chose quadratic
//     after trying several forms);
//  3. Eq. 1 with the paper-exact zero intercept vs a fitted intercept;
//  4. packing vs the rejected alternatives (serial batching, staggering,
//     Pywren-style reuse).
//
// Each sub-ablation fans its variants out in parallel and appends the
// resulting rows in variant order; a variant that needs a SimMeasurer owns
// its own instance (the measurer's probe counter is mutable state, so one
// is never shared across parallel cells).
func Ablation(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Ablations of ProPack's design choices",
		Header: []string{"ablation", "variant", "cost", "outcome"},
	}
	p := platform.AWSLambda()
	w := workload.Video{}
	for _, part := range []func() ([][]string, error){
		func() ([][]string, error) { return ablateSampling(cfg, p, w) },
		func() ([][]string, error) { return ablateScalingOrder(cfg, p) },
		func() ([][]string, error) { return ablateIntercept(cfg, p, w) },
		func() ([][]string, error) { return ablateAlternatives(cfg, p, w) },
		func() ([][]string, error) { return ablateInstanceSize(cfg) },
	} {
		rows, err := part()
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return t, nil
}

// ablateInstanceSize tests the paper's "use the maximum memory size (10 GB)"
// design choice (Sec. 3): for each configured instance size — with vCPUs
// and bandwidth scaled as Lambda scales them — ProPack plans and runs at
// the top concurrency. Larger instances permit deeper packing and thus
// fewer instances; at high concurrency that dominates, confirming the
// paper's choice.
func ablateInstanceSize(cfg Config) ([][]string, error) {
	w := workload.Video{}
	c := cfg.topConcurrency()
	sizes := []float64{3584, 7168, 10240}
	return forAll(len(sizes), func(i int) ([]string, error) {
		mb := sizes[i]
		p, err := platform.AWSLambda().WithMemory(mb)
		if err != nil {
			return nil, err
		}
		run, err := orchestrator.RunProPack(p, w.Demand(), c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		got := run.MetricsWithOverhead()
		return []string{"instance size", fmt.Sprintf("%.0f MB / %d vCPU", mb, p.Shape.Cores),
			fmt.Sprintf("degree %d, %d inst", run.Plan.Degree, got.Instances),
			fmt.Sprintf("service %.0fs, expense $%.2f", got.TotalService, got.ExpenseUSD)}, nil
	})
}

// ablateSampling compares the alternate-point profile against the full
// sweep: probe seconds spent vs mean model error over all degrees.
func ablateSampling(cfg Config, p platform.Config, w workload.Workload) ([][]string, error) {
	variants := []bool{false, true}
	return forAll(len(variants), func(i int) ([]string, error) {
		full := variants[i]
		meas := &core.SimMeasurer{Config: p, Demand: w.Demand(), Seed: cfg.Seed}
		opts := core.ProfileOptionsFor(p, w.Demand())
		opts.FullSweep = full
		models, _, _, ov, err := core.BuildModels(meas, opts)
		if err != nil {
			return nil, err
		}
		// Evaluate against the true curve at every feasible degree.
		var errSum float64
		var n int
		for deg := 1; deg <= models.MaxDegree; deg++ {
			truth, err := meas.MeasureExec(deg)
			if err != nil {
				break
			}
			errSum += math.Abs(models.ET.At(deg)-truth) / truth
			n++
		}
		name := "alternate points"
		if full {
			name = "full sweep"
		}
		return []string{"sampling", name,
			fmt.Sprintf("%.0f probe-sec", ov.ExecProbeSec),
			fmt.Sprintf("mean ET error %.2f%%", 100*errSum/float64(n))}, nil
	})
}

// ablateScalingOrder fits polynomials of order 1–3 to the scaling probes
// and reports extrapolation error at the top concurrency. MeasureScaling is
// stateless, so the probes fan out in parallel; the fits are cheap and stay
// sequential.
func ablateScalingOrder(cfg Config, p platform.Config) ([][]string, error) {
	meas := &core.SimMeasurer{Config: p, Demand: workload.Video{}.Demand(), Seed: cfg.Seed}
	probes := []int{100, 250, 500, 1000, 1500, 2000, 3000}
	holdout := cfg.topConcurrency()
	ys, err := forAll(len(probes)+1, func(i int) (float64, error) {
		if i == len(probes) {
			return meas.MeasureScaling(holdout)
		}
		return meas.MeasureScaling(probes[i])
	})
	if err != nil {
		return nil, err
	}
	truth := ys[len(probes)]
	xs := make([]float64, len(probes))
	for i, c := range probes {
		xs[i] = float64(c)
	}
	var out [][]string
	for order := 1; order <= 3; order++ {
		poly, err := stats.PolyFit(xs, ys[:len(probes)], order)
		if err != nil {
			return nil, err
		}
		pred := poly.At(float64(holdout))
		out = append(out, []string{"scaling model", fmt.Sprintf("order-%d polynomial", order),
			fmt.Sprintf("%d probes", len(probes)),
			fmt.Sprintf("extrapolation error at C=%d: %.1f%%", holdout, 100*math.Abs(pred-truth)/truth)})
	}
	return out, nil
}

// ablateIntercept compares the paper-exact Eq. 1 (zero intercept) against
// the fitted-intercept variant on prediction error.
func ablateIntercept(cfg Config, p platform.Config, w workload.Workload) ([][]string, error) {
	variants := []bool{true, false}
	return forAll(len(variants), func(i int) ([]string, error) {
		exact := variants[i]
		meas := &core.SimMeasurer{Config: p, Demand: w.Demand(), Seed: cfg.Seed}
		opts := core.ProfileOptionsFor(p, w.Demand())
		opts.FitET = core.FitETOptions{PaperExact: exact}
		models, samples, _, _, err := core.BuildModels(meas, opts)
		if err != nil {
			return nil, err
		}
		var errSum float64
		for _, s := range samples {
			errSum += math.Abs(models.ET.At(s.Degree)-s.ETSec) / s.ETSec
		}
		name := "fitted intercept"
		if exact {
			name = "paper-exact (no intercept)"
		}
		return []string{"Eq. 1 form", name, fmt.Sprintf("%d samples", len(samples)),
			fmt.Sprintf("mean ET error %.2f%%", 100*errSum/float64(len(samples)))}, nil
	})
}

// ablateAlternatives runs the latency-hiding alternatives the paper
// rejects next to ProPack at the top concurrency.
func ablateAlternatives(cfg Config, p platform.Config, w workload.Workload) ([][]string, error) {
	c := cfg.topConcurrency()
	base, err := orchestrator.Execute(p, w.Demand(), c, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	strategies := []baseline.Strategy{
		baseline.SerialBatching{BatchSize: 250},
		baseline.Staggered{DelaySec: 0.2},
		baseline.Pywren{},
	}
	out, err := forAll(len(strategies), func(i int) ([]string, error) {
		s := strategies[i]
		m, err := s.Execute(p, w.Demand(), c, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return []string{"alternatives", s.Name(), fmt.Sprintf("C=%d", c),
			fmt.Sprintf("service %s, expense %s",
				spct(trace.Improvement(base.TotalService, m.TotalService)),
				spct(trace.Improvement(base.ExpenseUSD, m.ExpenseUSD)))}, nil
	})
	if err != nil {
		return nil, err
	}
	run, err := orchestrator.RunProPack(p, w.Demand(), c, core.Balanced(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	got := run.MetricsWithOverhead()
	out = append(out, []string{"alternatives", "ProPack", fmt.Sprintf("C=%d", c),
		fmt.Sprintf("service %s, expense %s",
			spct(trace.Improvement(base.TotalService, got.TotalService)),
			spct(trace.Improvement(base.ExpenseUSD, got.ExpenseUSD)))})
	return out, nil
}
