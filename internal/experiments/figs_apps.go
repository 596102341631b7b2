package experiments

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/funcx"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig17 reproduces the Smith-Waterman case study: a compute-intensive HPC
// application whose Oracle packing degree stays far below its memory-bound
// maximum of 35, yet still gains ~81% service time and ~59% expense at a
// concurrency of 5000.
func Fig17(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 17: Smith-Waterman (max packing degree 35)",
		Header: []string{"concurrency", "degree", "service improv", "scaling improv", "expense improv"},
	}
	p := platform.AWSLambda()
	w := workload.SmithWaterman{}
	cs := cfg.concurrencies()
	return tabulate(t, len(cs), func(i int) ([][]string, error) {
		c := cs[i]
		run, err := orchestrator.RunProPack(p, w.Demand(), c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		base, err := orchestrator.Execute(p, w.Demand(), c, 1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		got := run.MetricsWithOverhead()
		return [][]string{{itoa(c), itoa(run.Plan.Degree),
			pct(trace.Improvement(base.TotalService, got.TotalService)),
			pct(trace.Improvement(base.ScalingTime, got.ScalingTime)),
			pct(trace.Improvement(base.ExpenseUSD, got.ExpenseUSD))}}, nil
	})
}

// Fig18 reproduces the FuncX comparison: FuncX's pod-based workers scale
// faster than Lambda's microVMs (~15% at 5000), but ProPack's packed
// execution runs faster on Lambda thanks to Firecracker's better isolation,
// so ProPack's total-service advantage is ~12% larger there.
func Fig18(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 18: FuncX vs AWS Lambda",
		Header: []string{"concurrency", "lambda scaling", "funcx scaling", "funcx advantage", "lambda+propack", "funcx+propack"},
	}
	aws := platform.AWSLambda()
	fx := funcx.Config()
	d := workload.Video{}.Demand()
	cs := cfg.concurrencies()
	return tabulate(t, len(cs), func(i int) ([][]string, error) {
		c := cs[i]
		baseA, err := platform.Run(aws, platform.Burst{Demand: d, Functions: c, Degree: 1, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		baseF, err := platform.Run(fx, platform.Burst{Demand: d, Functions: c, Degree: 1, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		runA, err := orchestrator.RunProPack(aws, d, c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		runF, err := orchestrator.RunProPack(fx, d, c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		return [][]string{{itoa(c),
			sec(baseA.ScalingTime()), sec(baseF.ScalingTime()),
			pct(trace.Improvement(baseA.ScalingTime(), baseF.ScalingTime())),
			sec(runA.Metrics.TotalService), sec(runF.Metrics.TotalService)}}, nil
	})
}

// Fig19 reproduces the Pywren comparison: Pywren's warm reuse and data-
// movement optimizations help, but they do not attack the scaling
// bottleneck, so ProPack wins by ~52% service time and ~78% expense on
// average in the paper.
func Fig19(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 19: ProPack vs Pywren",
		Header: []string{"app", "concurrency", "pywren svc", "propack svc", "svc improv", "pywren exp", "propack exp", "exp improv"},
	}
	p := platform.AWSLambda()
	py := baseline.Pywren{}
	apps := workload.Motivation()
	cs := cfg.concurrencies()
	return tabulate(t, len(apps)*len(cs), func(i int) ([][]string, error) {
		w, c := apps[i/len(cs)], cs[i%len(cs)]
		pm, err := py.Execute(p, w.Demand(), c, cfg.Seed)
		if err != nil {
			return nil, err
		}
		run, err := orchestrator.RunProPack(p, w.Demand(), c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		got := run.MetricsWithOverhead()
		return [][]string{{w.Name(), itoa(c),
			sec(pm.TotalService), sec(got.TotalService),
			pct(trace.Improvement(pm.TotalService, got.TotalService)),
			usd(pm.ExpenseUSD), usd(got.ExpenseUSD),
			pct(trace.Improvement(pm.ExpenseUSD, got.ExpenseUSD))}}, nil
	})
}

// Fig20 reproduces the Xapian QoS study: (a) the tail-optimal packing
// degree rises as expense gains weight; (b) the Sec. 2.6 weight search
// finds W_S (0.65 in the paper) meeting the tail bound while improving
// service >80% and expense >65% at a concurrency of 5000.
func Fig20(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 20: Xapian with a QoS bound on p95 service time",
		Header: []string{"row", "W_S", "degree", "tail service", "service improv", "expense improv"},
	}
	p := platform.AWSLambda()
	w := workload.Xapian{}
	c := cfg.topConcurrency()
	base, err := orchestrator.Execute(p, w.Demand(), c, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	models, _, _, _, err := buildModels(cfg, p, w)
	if err != nil {
		return nil, err
	}
	// Every planning call below runs at the same concurrency; a Planner lets
	// the objectives, the tail probes, and the QoS grid search share one
	// degree table.
	pl := core.NewPlanner(models)
	// (a) the three standing objectives.
	objectives := []struct {
		name string
		w    core.Weights
	}{
		{"service-only", core.ServiceOnly()},
		{"joint", core.Balanced()},
		{"expense-only", core.ExpenseOnly()},
	}
	if _, err := tabulate(t, len(objectives), func(i int) ([][]string, error) {
		row := objectives[i]
		deg, err := pl.OptimalDegreeForQuantile(c, 95, row.w)
		if err != nil {
			return nil, err
		}
		m, err := orchestrator.Execute(p, w.Demand(), c, deg, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return [][]string{{row.name, frac(row.w.Service), itoa(deg), sec(m.TailService),
			pct(trace.Improvement(base.TotalService, m.TotalService)),
			pct(trace.Improvement(base.ExpenseUSD, m.ExpenseUSD))}}, nil
	}); err != nil {
		return nil, err
	}
	// (b) QoS-bounded run: a bound between the best and worst achievable
	// tails forces a non-trivial weight.
	bestTail, err := pl.TailServiceAt(c, core.ServiceOnly(), 95)
	if err != nil {
		return nil, err
	}
	worstTail, err := pl.TailServiceAt(c, core.ExpenseOnly(), 95)
	if err != nil {
		return nil, err
	}
	qos := bestTail + 0.25*(worstTail-bestTail)
	plan, weights, err := pl.QoSPlan(c, qos, core.QoSOptions{})
	if err != nil {
		return nil, err
	}
	m, err := orchestrator.Execute(p, w.Demand(), c, plan.Degree, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t.AddRow("QoS-bounded", frac(weights.Service), itoa(plan.Degree), sec(m.TailService),
		pct(trace.Improvement(base.TotalService, m.TotalService)),
		pct(trace.Improvement(base.ExpenseUSD, m.ExpenseUSD)))
	return t, nil
}

// Fig21 reproduces the multi-platform comparison at a concurrency of 1000:
// ProPack helps on all three commercial clouds, and the expense cut is
// larger on Google and Azure because their per-GB networking fee shrinks
// with co-location.
func Fig21(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 21: ProPack across commercial platforms",
		Header: []string{"platform", "app", "degree", "service improv", "expense improv"},
	}
	c := 1000
	providers := platform.Providers()
	apps := workload.Motivation()
	return tabulate(t, len(providers)*len(apps), func(i int) ([][]string, error) {
		p, w := providers[i/len(apps)], apps[i%len(apps)]
		run, err := orchestrator.RunProPack(p, w.Demand(), c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		base, err := orchestrator.Execute(p, w.Demand(), c, 1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		got := run.MetricsWithOverhead()
		return [][]string{{p.Name, w.Name(), itoa(run.Plan.Degree),
			pct(trace.Improvement(base.TotalService, got.TotalService)),
			pct(trace.Improvement(base.ExpenseUSD, got.ExpenseUSD))}}, nil
	})
}
