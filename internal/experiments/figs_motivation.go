package experiments

import (
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig1 reproduces the motivation figure: scaling time as a fraction of the
// total service time, per provider, application, and concurrency level. The
// paper's headline: more than 80% on Lambda at a concurrency of 5000.
func Fig1(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 1: scaling time / total service time (no packing)",
		Header: []string{"platform", "app", "concurrency", "scaling", "total service", "fraction"},
	}
	providers := platform.Providers()
	apps := workload.Motivation()
	cs := cfg.concurrencies()
	return tabulate(t, len(providers)*len(apps)*len(cs), func(i int) ([][]string, error) {
		p := providers[i/(len(apps)*len(cs))]
		w := apps[i/len(cs)%len(apps)]
		c := cs[i%len(cs)]
		res, err := platform.Run(p, platform.Burst{
			Demand: w.Demand(), Functions: c, Degree: 1, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return [][]string{{p.Name, w.Name(), itoa(c),
			sec(res.ScalingTime()), sec(res.TotalServiceTime()),
			frac(res.ScalingTime() / res.TotalServiceTime())}}, nil
	})
}

// Fig2 reproduces the stage-decomposition figure: the time spent in
// scheduling, start-up (image build), and shipping each grows with
// concurrency. Each component is the stage's aggregate busy time per
// server (the stages pipeline, so they overlap), normalized by the scaling
// time at the top concurrency as in the paper.
func Fig2(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 2: control-plane stage time (% of scaling time at top concurrency)",
		Header: []string{"concurrency", "scheduling", "start-up", "shipping"},
	}
	p := platform.AWSLambda()
	d := workload.Video{}.Demand() // stage times are application-independent
	type row struct {
		c                           int
		sched, build, ship, scaling float64
	}
	cs := cfg.concurrencies()
	rows, err := forAll(len(cs), func(i int) (row, error) {
		c := cs[i]
		res, err := platform.Run(p, platform.Burst{Demand: d, Functions: c, Degree: 1, Seed: cfg.Seed})
		if err != nil {
			return row{}, err
		}
		return row{c: c, sched: res.SchedBusySec, build: res.BuildBusySec,
			ship: res.ShipBusySec, scaling: res.ScalingTime()}, nil
	})
	if err != nil {
		return nil, err
	}
	var norm float64
	for _, r := range rows {
		if r.c == cfg.topConcurrency() {
			norm = r.scaling
		}
	}
	for _, r := range rows {
		t.AddRow(itoa(r.c), pct(100*r.sched/norm), pct(100*r.build/norm), pct(100*r.ship/norm))
	}
	return t, nil
}

// Fig5a reproduces the isolation check: the execution time of a single
// function instance barely moves as the concurrency level grows from the
// bottom to the top of the grid (<5% in the paper).
func Fig5a(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 5a: per-instance execution time vs concurrency (degree 1)",
		Header: []string{"app", "concurrency", "mean exec", "drift vs first"},
	}
	p := platform.AWSLambda()
	apps := workload.Motivation()
	cs := cfg.concurrencies()
	ets, err := forAll(len(apps)*len(cs), func(i int) (float64, error) {
		w, c := apps[i/len(cs)], cs[i%len(cs)]
		res, err := platform.Run(p, platform.Burst{Demand: w.Demand(), Functions: c, Degree: 1, Seed: cfg.Seed})
		if err != nil {
			return 0, err
		}
		return res.MeanExecSeconds(), nil
	})
	if err != nil {
		return nil, err
	}
	for ai, w := range apps {
		first := ets[ai*len(cs)]
		for ci, c := range cs {
			et := ets[ai*len(cs)+ci]
			t.AddRow(w.Name(), itoa(c), sec(et), pct(100*(et-first)/first))
		}
	}
	return t, nil
}

// Fig5b reproduces the application-independence check: the scaling time of
// the same burst size is identical no matter which application runs.
func Fig5b(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 5b: scaling time vs concurrency, per application (degree 1)",
		Header: []string{"concurrency", "Video", "Sort", "Stateless Cost", "max spread"},
	}
	p := platform.AWSLambda()
	apps := workload.Motivation()
	cs := cfg.concurrencies()
	scalings, err := forAll(len(cs)*len(apps), func(i int) (float64, error) {
		c, w := cs[i/len(apps)], apps[i%len(apps)]
		res, err := platform.Run(p, platform.Burst{Demand: w.Demand(), Functions: c, Degree: 1, Seed: cfg.Seed})
		if err != nil {
			return 0, err
		}
		return res.ScalingTime(), nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cs {
		vals := scalings[ci*len(apps) : (ci+1)*len(apps)]
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		t.AddRow(itoa(c), sec(vals[0]), sec(vals[1]), sec(vals[2]), pct(100*(hi-lo)/hi))
	}
	return t, nil
}

// Fig6 reproduces the packing effect on scaling: at a fixed concurrency the
// scaling time falls steeply as the packing degree rises.
func Fig6(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 6: scaling time vs packing degree at fixed concurrency",
		Header: []string{"app", "degree", "instances", "scaling time"},
	}
	p := platform.AWSLambda()
	c := cfg.topConcurrency()
	type cell struct {
		w   workload.Workload
		deg int
	}
	var cells []cell
	for _, w := range workload.Motivation() {
		for _, deg := range []int{1, 2, 4, 8, 12} {
			if deg > p.Shape.MaxDegree(w.Demand()) {
				continue
			}
			cells = append(cells, cell{w, deg})
		}
	}
	return tabulate(t, len(cells), func(i int) ([][]string, error) {
		w, deg := cells[i].w, cells[i].deg
		res, err := platform.Run(p, platform.Burst{Demand: w.Demand(), Functions: c, Degree: deg, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		return [][]string{{w.Name(), itoa(deg), itoa(res.Burst.Instances()), sec(res.ScalingTime())}}, nil
	})
}

// Fig7 reproduces the expense curve: the bill first falls with the packing
// degree (fewer instances) and eventually rises again (interference), so
// the optimum is interior — the reason Eq. 4 needs solving at all.
func Fig7(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 7: expense vs packing degree (non-monotonic)",
		Header: []string{"app", "degree", "expense", "vs degree 1"},
	}
	p := platform.AWSLambda()
	c := cfg.midConcurrency()
	if !cfg.Quick {
		c = 1000 // the paper plots Fig. 7 at a concurrency of 1000
	}
	degrees := []int{1, 2, 4, 8, 12, 16, 20, 25, 30, 35, 40}
	apps := workload.Motivation()
	// A cell past the platform's execution limit is a normal truncation
	// signal for its app's sweep, so failures ride in the value.
	type cell struct {
		expense float64
		ok      bool
	}
	cells, err := forAll(len(apps)*len(degrees), func(i int) (cell, error) {
		w, deg := apps[i/len(degrees)], degrees[i%len(degrees)]
		if deg > p.Shape.MaxDegree(w.Demand()) {
			return cell{}, nil
		}
		res, err := platform.Run(p, platform.Burst{Demand: w.Demand(), Functions: c, Degree: deg, Seed: cfg.Seed})
		if err != nil {
			return cell{}, nil // execution limit: stop this app's sweep
		}
		return cell{expense: res.ExpenseUSD(), ok: true}, nil
	})
	if err != nil {
		return nil, err
	}
	for ai, w := range apps {
		maxDeg := p.Shape.MaxDegree(w.Demand())
		var base float64
		for di, deg := range degrees {
			if deg > maxDeg {
				break
			}
			cl := cells[ai*len(degrees)+di]
			if !cl.ok {
				break
			}
			if deg == 1 {
				base = cl.expense
			}
			t.AddRow(w.Name(), itoa(deg), usd(cl.expense),
				pct(trace.Improvement(base, cl.expense)))
		}
	}
	return t, nil
}
