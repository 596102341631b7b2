package experiments

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/interfere"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// averagedSweep repeats the exhaustive degree sweep with `trials` seeds and
// averages the metrics per degree — the paper repeats every experiment for
// statistical significance, and the Oracle degree is meaningless otherwise
// (neighbouring degrees differ by less than the run-to-run jitter). The
// trials fan out in parallel (each trial owns its seed), and the averages
// are folded in trial order, so the result is bit-identical to the
// sequential loop.
func averagedSweep(cfg Config, p platform.Config, d interfere.Demand, c int, maxDeg, trials int) ([]trace.Metrics, error) {
	sweeps, err := forAll(trials, func(t int) ([]trace.Metrics, error) {
		return baseline.Sweep(p, d, c, cfg.Seed+int64(t)*1009, maxDeg)
	})
	if err != nil {
		return nil, err
	}
	var acc []trace.Metrics
	for _, sweep := range sweeps {
		if acc == nil {
			acc = sweep
			continue
		}
		if len(sweep) < len(acc) {
			acc = acc[:len(sweep)]
		}
		for i := range acc {
			acc[i].ScalingTime += sweep[i].ScalingTime
			acc[i].TotalService += sweep[i].TotalService
			acc[i].TailService += sweep[i].TailService
			acc[i].MedianService += sweep[i].MedianService
			acc[i].ExpenseUSD += sweep[i].ExpenseUSD
		}
	}
	inv := 1 / float64(trials)
	for i := range acc {
		acc[i].ScalingTime *= inv
		acc[i].TotalService *= inv
		acc[i].TailService *= inv
		acc[i].MedianService *= inv
		acc[i].ExpenseUSD *= inv
	}
	return acc, nil
}

// Fig8 reproduces the Oracle-vs-ProPack packing-degree comparison: for each
// application and concurrency, the brute-force Oracle degree for the total,
// tail, and median figures of merit next to ProPack's analytical choice.
// The paper finds ProPack correct in all but two cases.
func Fig8(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 8: Oracle vs ProPack packing degrees (joint objective)",
		Header: []string{"app", "concurrency", "metric", "oracle", "propack", "delta", "match"},
	}
	p := platform.AWSLambda()
	apps := workload.Motivation()
	return tabulate(t, len(apps), func(i int) ([][]string, error) {
		w := apps[i]
		models, _, _, _, err := buildModels(cfg, p, w)
		if err != nil {
			return nil, err
		}
		pl := core.NewPlanner(models) // one degree table per concurrency, shared by the three quantiles
		var out [][]string
		for _, c := range cfg.concurrencies() {
			sweep, err := averagedSweep(cfg, p, w.Demand(), c, models.MaxDegree, 3)
			if err != nil {
				return nil, err
			}
			oracle, err := baseline.SweepPlanner(c, sweep) // the Oracle: Eq. 7 over measured columns
			if err != nil {
				return nil, err
			}
			for _, metric := range []struct {
				name string
				q    float64
			}{{"total", 100}, {"tail", 95}, {"median", 50}} {
				r := core.Request{C: c, Weights: core.Balanced(), Quantile: metric.q}
				oracleAt, err := oracle.Answer(r)
				if err != nil {
					return nil, err
				}
				modeled, err := pl.Answer(r)
				if err != nil {
					return nil, err
				}
				od, pp := oracleAt.Degree, modeled.Degree
				match := "yes"
				if pp != od {
					match = "no"
				}
				out = append(out, []string{w.Name(), itoa(c), metric.name,
					itoa(od), itoa(pp), itoa(pp - od), match})
			}
		}
		return out, nil
	})
}

// improvementRows runs ProPack (balanced weights, overhead included) and
// the no-packing baseline for each motivation app and concurrency, and
// reports improvement on the selected metric, its two values formatted by
// format under the columns baseCol and packedCol. The (app × concurrency)
// grid fans out in parallel; rows land in grid order.
func improvementRows(cfg Config, title, baseCol, packedCol string,
	format func(float64) string, pick func(m trace.Metrics) float64) (*trace.Table, error) {
	t := &trace.Table{
		Title:  title,
		Header: []string{"app", "concurrency", "degree", baseCol, packedCol, "improvement"},
	}
	p := platform.AWSLambda()
	apps := workload.Motivation()
	cs := cfg.concurrencies()
	return tabulate(t, len(apps)*len(cs), func(i int) ([][]string, error) {
		w, c := apps[i/len(cs)], cs[i%len(cs)]
		run, err := orchestrator.RunProPack(p, w.Demand(), c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		base, err := orchestrator.Execute(p, w.Demand(), c, 1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		got := run.MetricsWithOverhead()
		return [][]string{{w.Name(), itoa(c), itoa(run.Plan.Degree),
			format(pick(base)), format(pick(got)),
			pct(trace.Improvement(pick(base), pick(got)))}}, nil
	})
}

// Fig9 reproduces the headline service-time result: >50% improvement in
// most cases, ~85% on average at a concurrency of 5000.
func Fig9(cfg Config) (*trace.Table, error) {
	return improvementRows(cfg,
		"Fig 9: total service time, ProPack vs no packing (overhead included)",
		"baseline service", "propack service", sec,
		func(m trace.Metrics) float64 { return m.TotalService })
}

// Fig10 reproduces the scaling-time result: the reduction grows with
// concurrency and exceeds the service-time reduction (often >90% at 5000),
// since packing pays back some gains as longer instance execution.
func Fig10(cfg Config) (*trace.Table, error) {
	return improvementRows(cfg,
		"Fig 10: scaling time, ProPack vs no packing",
		"baseline scaling", "propack scaling", sec,
		func(m trace.Metrics) float64 { return m.ScalingTime })
}

// Fig11 reproduces the expense result: a consistent reduction at every
// concurrency (66% on average at 5000 in the paper), even though scaling
// time itself is never billed.
func Fig11(cfg Config) (*trace.Table, error) {
	return improvementRows(cfg,
		"Fig 11: expense, ProPack vs no packing (modeling overhead included)",
		"baseline", "propack", usd,
		func(m trace.Metrics) float64 { return m.ExpenseUSD })
}

// Fig12 reproduces the absolute-value reference: total service function-
// hours and dollars at the mid concurrency (2000 in the paper, where the
// baseline consumes >50 function-hours and >$25, and ProPack <14 hours and
// <$12).
func Fig12(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 12: absolute function-hours and expense at mid concurrency",
		Header: []string{"app", "technique", "degree", "function-hours", "expense"},
	}
	p := platform.AWSLambda()
	c := cfg.midConcurrency()
	apps := workload.Motivation()
	return tabulate(t, len(apps), func(i int) ([][]string, error) {
		w := apps[i]
		base, err := orchestrator.Execute(p, w.Demand(), c, 1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		run, err := orchestrator.RunProPack(p, w.Demand(), c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		got := run.MetricsWithOverhead()
		return [][]string{
			{w.Name(), "no packing", "1", f3(base.FunctionHours), usd(base.ExpenseUSD)},
			{w.Name(), "ProPack", itoa(run.Plan.Degree), f3(got.FunctionHours), usd(got.ExpenseUSD)},
		}, nil
	})
}
