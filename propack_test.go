package propack

import "testing"

func TestFacadeEndToEnd(t *testing.T) {
	cfg := AWSLambda()
	app := VideoWorkload()
	const c = 2000
	rec, err := Advise(cfg, app.Demand(), c, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Plan.Degree < 2 {
		t.Fatalf("expected packing at C=%d, got degree %d", c, rec.Plan.Degree)
	}
	packed, err := Run(cfg, app.Demand(), c, rec.Plan.Degree, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(cfg, app.Demand(), c, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if packed.TotalService >= base.TotalService || packed.ExpenseUSD >= base.ExpenseUSD {
		t.Fatalf("recommendation not better:\npacked %+v\nbase %+v", packed, base)
	}
}

func TestFacadeWorkloadsComplete(t *testing.T) {
	if len(Workloads()) != 5 {
		t.Fatalf("expected 5 workloads, got %d", len(Workloads()))
	}
	for _, w := range []Workload{VideoWorkload(), SortWorkload(), StatelessCostWorkload(),
		SmithWatermanWorkload(), XapianWorkload()} {
		if err := w.Demand().Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
	}
}

func TestFacadeRunProPackIncludesOverhead(t *testing.T) {
	cfg := AWSLambda()
	d := XapianWorkload().Demand()
	m, plan, err := RunProPack(cfg, d, 1000, Balanced(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degree < 1 || m.ExpenseUSD <= 0 {
		t.Fatalf("degenerate result: plan %+v metrics %+v", plan, m)
	}
	bare, err := Run(cfg, d, 1000, plan.Degree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExpenseUSD <= bare.ExpenseUSD {
		t.Fatal("RunProPack should include modeling overhead in expense")
	}
}

func TestFacadeQoS(t *testing.T) {
	cfg := AWSLambda()
	d := XapianWorkload().Demand()
	// A generous bound is always satisfiable with expense-leaning weights.
	rec, w, err := AdviseQoS(cfg, d, 1000, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if w.Service != 0 {
		t.Fatalf("generous bound should need no service weight, got %g", w.Service)
	}
	if rec.Plan.Degree < 1 {
		t.Fatal("no plan degree")
	}
}

// TestFacadeQoSRunMeetsBound: a burst run at AdviseQoS's degree observes a
// tail within the bound, the bound set between the observed tails of the
// expense-only and service-only plans.
func TestFacadeQoSRunMeetsBound(t *testing.T) {
	cfg := AWSLambda()
	d := XapianWorkload().Demand()
	const c = 2000
	exp, _, err := RunProPack(cfg, d, c, ExpenseOnly(), 10)
	if err != nil {
		t.Fatal(err)
	}
	svc, _, err := RunProPack(cfg, d, c, ServiceOnly(), 10)
	if err != nil {
		t.Fatal(err)
	}
	bound := (exp.TailService + svc.TailService) / 2
	rec, w, err := AdviseQoS(cfg, d, c, bound)
	if err != nil {
		t.Fatal(err)
	}
	if w.Service <= 0 || w.Service > 1 {
		t.Fatalf("degenerate QoS weights: %+v", w)
	}
	m, err := Run(cfg, d, c, rec.Plan.Degree, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.TailService > bound*1.1 { // modeled bound, 10% slack on observed
		t.Fatalf("observed tail %g far above QoS bound %g", m.TailService, bound)
	}
}

// TestAdviseAllocs pins what a cold Advise allocates once the platform's
// scaling answers are stored: 40 objects, with the probe trains run in order
// on the caller's goroutine and each interference probe a platform.ExecTime
// that allocates nothing. It was 280 when every such probe was a Run that
// built a Result, and 321 when the trains fanned out over worker goroutines.
// A probe that allocates again, or a fan-out that creeps back, fails here.
func TestAdviseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts measure the race detector")
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := Advise(AWSLambda(), VideoWorkload().Demand(), 2000, Balanced()); err != nil {
			t.Fatal(err)
		}
	})
	if got > 45 {
		t.Errorf("a cold Advise allocates %.0f objects, want ≤ 45", got)
	}
}
