package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interfere"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

func demand() interfere.Demand { return workload.Video{}.Demand() }

func TestSerialBatchingTradesScalingForTurnaround(t *testing.T) {
	cfg := platform.AWSLambda()
	const c = 1000
	batched, err := SerialBatching{BatchSize: 100}.Execute(cfg, demand(), c, 2)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := orchestrator.Execute(cfg, demand(), c, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Serialization hurts turnaround (the paper's argument against it)…
	if batched.TotalService <= burst.TotalService {
		t.Fatalf("batching should hurt turnaround at this scale: %g vs %g",
			batched.TotalService, burst.TotalService)
	}
	// …even though each wave's scaling is small, the last wave starts late.
	if batched.ScalingTime <= burst.ScalingTime {
		t.Fatalf("serial batching's last start should be later: %g vs %g",
			batched.ScalingTime, burst.ScalingTime)
	}
}

func TestSerialBatchingValidation(t *testing.T) {
	if _, err := (SerialBatching{}).Execute(platform.AWSLambda(), demand(), 10, 1); err == nil {
		t.Fatal("batch size 0 accepted")
	}
}

func TestStaggeredAvoidsCongestionButDelays(t *testing.T) {
	cfg := platform.AWSLambda()
	const c = 1000
	stag, err := Staggered{DelaySec: 0.5}.Execute(cfg, demand(), c, 3)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := orchestrator.Execute(cfg, demand(), c, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The last instance cannot start before (C−1)·delay.
	if stag.ScalingTime < float64(c-1)*0.5 {
		t.Fatalf("stagger should delay the last start ≥%g, got %g", float64(c-1)*0.5, stag.ScalingTime)
	}
	// Severe service degradation versus the burst (Sec. 4's observation).
	if stag.TotalService <= burst.TotalService {
		t.Fatalf("staggering should degrade service at this delay: %g vs %g",
			stag.TotalService, burst.TotalService)
	}
}

func TestStaggeredValidation(t *testing.T) {
	if _, err := (Staggered{}).Execute(platform.AWSLambda(), demand(), 10, 1); err == nil {
		t.Fatal("zero delay accepted")
	}
}

func TestPywrenHelpsAtLowConcurrencyOnly(t *testing.T) {
	cfg := platform.AWSLambda()
	imp := func(c int) float64 {
		py, err := Pywren{}.Execute(cfg, demand(), c, 4)
		if err != nil {
			t.Fatal(err)
		}
		base, err := orchestrator.Execute(cfg, demand(), c, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		return 1 - py.TotalService/base.TotalService
	}
	low := imp(400)   // pool covers the whole burst
	high := imp(5000) // pool covers 10%
	if low <= 0 {
		t.Fatalf("Pywren should help at low concurrency, improvement %g", low)
	}
	if high >= low {
		t.Fatalf("Pywren's advantage should fade at high concurrency: low=%g high=%g", low, high)
	}
}

// oracle sweeps every degree of demand() at (c, seed) and returns the
// planner over the sweep's measured columns, with the sweep.
func oracle(t *testing.T, c int, seed int64) (*core.Planner, []trace.Metrics) {
	t.Helper()
	cfg := platform.AWSLambda()
	all, err := Sweep(cfg, demand(), c, seed, cfg.Shape.MaxDegree(demand()))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := SweepPlanner(c, all)
	if err != nil {
		t.Fatal(err)
	}
	return pl, all
}

func TestOracleBeatsBaselineAndEndpoints(t *testing.T) {
	cfg := platform.AWSLambda()
	const c = 1500
	pl, all := oracle(t, c, 5)
	plan, err := pl.PlanFor(c, core.ServiceOnly())
	if err != nil {
		t.Fatal(err)
	}
	deg := plan.Degree
	if deg <= 1 {
		t.Fatalf("oracle at C=%d should pack, got degree %d", c, deg)
	}
	base, err := orchestrator.Execute(cfg, demand(), c, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PredictedServiceSec >= base.TotalService {
		t.Fatalf("oracle no better than baseline: %g vs %g", plan.PredictedServiceSec, base.TotalService)
	}
	// The oracle's figures must be its sweep's at its degree, and equal a
	// rerun at that degree.
	again, err := orchestrator.Execute(cfg, demand(), c, deg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m := all[deg-1]; m.Degree != deg || plan.PredictedServiceSec != m.TotalService || again.TotalService != m.TotalService {
		t.Fatalf("oracle plan %+v does not match its sweep's run %+v or a rerun %+v at its degree", plan, m, again)
	}
}

func TestOracleObjectivesDiffer(t *testing.T) {
	const c = 2000
	pl, _ := oracle(t, c, 6)
	planS, err := pl.PlanFor(c, core.ServiceOnly())
	if err != nil {
		t.Fatal(err)
	}
	planE, err := pl.PlanFor(c, core.ExpenseOnly())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 15: the expense oracle packs more than the service oracle.
	if planE.Degree <= planS.Degree {
		t.Fatalf("expense oracle degree %d should exceed service oracle %d", planE.Degree, planS.Degree)
	}
}

func TestSweepStopsAtExecLimit(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.SmithWaterman{}.Demand() // compute-bound: high degrees exceed 900 s
	all, err := Sweep(cfg, d, 100, 7, cfg.Shape.MaxDegree(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("sweep empty")
	}
	if len(all) >= cfg.Shape.MaxDegree(d) {
		t.Fatalf("sweep should stop before the memory-bound max (%d), got %d runs",
			cfg.Shape.MaxDegree(d), len(all))
	}
	for i, m := range all {
		if m.Degree != i+1 {
			t.Fatalf("sweep not in degree order at %d: %+v", i, m)
		}
	}
}

// TestOracleInfeasible: a function that fits no instance sweeps no degree,
// and the planner over an empty sweep is an error.
func TestOracleInfeasible(t *testing.T) {
	cfg := platform.AWSLambda()
	d := demand()
	d.MemoryMB = cfg.Shape.MemoryMB + 1
	all, err := Sweep(cfg, d, 10, 1, cfg.Shape.MaxDegree(d))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepPlanner(10, all); err == nil {
		t.Fatal("oversized function accepted")
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{SerialBatching{BatchSize: 50},
		Staggered{DelaySec: 0.1}, Pywren{}} {
		if s.Name() == "" {
			t.Fatal("empty strategy name")
		}
	}
}
