package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// objectiveRows runs ProPack under the joint objective and under the
// single objective w (short names it in the header) for each motivation app
// and concurrency, and reports each one's improvement over the no-packing
// baseline on the metric w selects, overhead included, and the single
// objective's extra gain.
func objectiveRows(cfg Config, title, short string, w core.Weights,
	pick func(m trace.Metrics) float64) (*trace.Table, error) {
	t := &trace.Table{
		Title:  title,
		Header: []string{"app", "concurrency", "joint deg", short + " deg", "joint improv", short + " improv", "extra"},
	}
	p := platform.AWSLambda()
	apps := workload.Motivation()
	cs := cfg.concurrencies()
	return tabulate(t, len(apps)*len(cs), func(i int) ([][]string, error) {
		wl, c := apps[i/len(cs)], cs[i%len(cs)]
		joint, err := orchestrator.RunProPack(p, wl.Demand(), c, core.Balanced(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		single, err := orchestrator.RunProPack(p, wl.Demand(), c, w, cfg.Seed)
		if err != nil {
			return nil, err
		}
		base, err := orchestrator.Execute(p, wl.Demand(), c, 1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ji := trace.Improvement(pick(base), pick(joint.MetricsWithOverhead()))
		si := trace.Improvement(pick(base), pick(single.MetricsWithOverhead()))
		return [][]string{{wl.Name(), itoa(c), itoa(joint.Plan.Degree), itoa(single.Plan.Degree),
			pct(ji), pct(si), pct(si - ji)}}, nil
	})
}

// Fig13 reproduces the single-objective comparison for time-constrained
// workloads: ProPack with service time as the sole objective improves total
// service time a further ~7.5% over the joint objective. The modeling
// overhead is billed, so it leaves the service time as it is.
func Fig13(cfg Config) (*trace.Table, error) {
	return objectiveRows(cfg, "Fig 13: ProPack (service-time objective) vs ProPack (joint)",
		"svc", core.ServiceOnly(), func(m trace.Metrics) float64 { return m.TotalService })
}

// Fig14 reproduces the budget-constrained counterpart: expense as the sole
// objective cuts cost a further ~9.3% over the joint objective.
func Fig14(cfg Config) (*trace.Table, error) {
	return objectiveRows(cfg, "Fig 14: ProPack (expense objective) vs ProPack (joint)",
		"exp", core.ExpenseOnly(), func(m trace.Metrics) float64 { return m.ExpenseUSD })
}

// Fig15 reproduces the objective-dependence of the Oracle packing degree:
// minimizing expense packs more than minimizing service time, and ProPack's
// analytical degrees track both. Each app builds its models once and reuses
// them across the concurrency grid, so the fan-out is per app.
func Fig15(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 15: Oracle degree by objective (service-only vs expense-only)",
		Header: []string{"app", "concurrency", "oracle svc", "propack svc", "oracle exp", "propack exp"},
	}
	p := platform.AWSLambda()
	apps := workload.Motivation()
	return tabulate(t, len(apps), func(i int) ([][]string, error) {
		w := apps[i]
		models, _, _, _, err := buildModels(cfg, p, w)
		if err != nil {
			return nil, err
		}
		pl := core.NewPlanner(models) // both objectives read one table per concurrency
		var out [][]string
		for _, c := range cfg.concurrencies() {
			// One exhaustive sweep per cell; the Oracle asks it what ProPack
			// asks its models. Eqs. 3 and 4 are Eq. 7 at the extreme weights.
			all, err := baseline.Sweep(p, w.Demand(), c, cfg.Seed, p.Shape.MaxDegree(w.Demand()))
			if err != nil {
				return nil, err
			}
			oracle, err := baseline.SweepPlanner(c, all)
			if err != nil {
				return nil, err
			}
			row := []string{w.Name(), itoa(c)}
			for _, col := range []struct {
				pl *core.Planner
				w  core.Weights
			}{{oracle, core.ServiceOnly()}, {pl, core.ServiceOnly()}, {oracle, core.ExpenseOnly()}, {pl, core.ExpenseOnly()}} {
				plan, err := col.pl.PlanFor(c, col.w)
				if err != nil {
					return nil, err
				}
				row = append(row, itoa(plan.Degree))
			}
			out = append(out, row)
		}
		return out, nil
	})
}

// Fig16 reproduces the weight-sensitivity sweep for Stateless Cost at the
// top concurrency: as W_E grows, expense improves further; as W_S grows,
// service time does.
func Fig16(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 16: weight sensitivity (Stateless Cost)",
		Header: []string{"W_S/W_E", "degree", "service improv", "expense improv"},
	}
	p := platform.AWSLambda()
	w := workload.StatelessCost{}
	c := cfg.topConcurrency()
	base, err := orchestrator.Execute(p, w.Demand(), c, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	models, _, _, _, err := buildModels(cfg, p, w)
	if err != nil {
		return nil, err
	}
	pl := core.NewPlanner(models) // all weight steps share the table at c
	wss := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	return tabulate(t, len(wss), func(i int) ([][]string, error) {
		ws := wss[i]
		weights := core.Weights{Service: ws, Expense: 1 - ws}
		plan, err := pl.PlanFor(c, weights)
		if err != nil {
			return nil, err
		}
		deg := plan.Degree
		m, err := orchestrator.Execute(p, w.Demand(), c, deg, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return [][]string{{fmt.Sprintf("%.1f/%.1f", ws, 1-ws), itoa(deg),
			pct(trace.Improvement(base.TotalService, m.TotalService)),
			pct(trace.Improvement(base.ExpenseUSD, m.ExpenseUSD))}}, nil
	})
}
