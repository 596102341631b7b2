package baseline

import (
	"errors"
	"testing"

	"repro/internal/interfere"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/workload"
)

func demand() interfere.Demand { return workload.Video{}.Demand() }

func TestNoPackingMatchesDegreeOne(t *testing.T) {
	cfg := platform.AWSLambda()
	m, err := NoPacking{}.Execute(cfg, demand(), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := orchestrator.Execute(cfg, demand(), 200, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m != ref {
		t.Fatalf("NoPacking differs from raw degree-1 execution:\n%+v\n%+v", m, ref)
	}
	if m.Degree != 1 || m.Instances != 200 {
		t.Fatalf("wrong identity: %+v", m)
	}
}

func TestSerialBatchingTradesScalingForTurnaround(t *testing.T) {
	cfg := platform.AWSLambda()
	const c = 1000
	batched, err := SerialBatching{BatchSize: 100}.Execute(cfg, demand(), c, 2)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := NoPacking{}.Execute(cfg, demand(), c, 2)
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
	burst, err := NoPacking{}.Execute(cfg, demand(), c, 3)
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
		base, err := NoPacking{}.Execute(cfg, demand(), c, 4)
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

func TestPywrenValidation(t *testing.T) {
	if _, err := (Pywren{WarmInstances: -1}).Execute(platform.AWSLambda(), demand(), 10, 1); err == nil {
		t.Fatal("negative pool accepted")
	}
	if _, err := (Pywren{IOSavings: 1.5}).Execute(platform.AWSLambda(), demand(), 10, 1); err == nil {
		t.Fatal("I/O savings ≥1 accepted")
	}
}

func TestOracleBeatsBaselineAndEndpoints(t *testing.T) {
	cfg := platform.AWSLambda()
	const c = 1500
	m, deg, err := Oracle{Objective: MinTotalService}.Search(cfg, demand(), c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if deg <= 1 {
		t.Fatalf("oracle at C=%d should pack, got degree %d", c, deg)
	}
	base, err := NoPacking{}.Execute(cfg, demand(), c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalService >= base.TotalService {
		t.Fatalf("oracle no better than baseline: %g vs %g", m.TotalService, base.TotalService)
	}
	// The oracle's metrics must equal re-running at its chosen degree.
	again, err := orchestrator.Execute(cfg, demand(), c, deg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalService != m.TotalService {
		t.Fatal("oracle metrics do not match its chosen degree")
	}
}

func TestOracleObjectivesDiffer(t *testing.T) {
	cfg := platform.AWSLambda()
	const c = 2000
	_, degS, err := Oracle{Objective: MinTotalService}.Search(cfg, demand(), c, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, degE, err := Oracle{Objective: MinExpense}.Search(cfg, demand(), c, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 15: the expense oracle packs more than the service oracle.
	if degE <= degS {
		t.Fatalf("expense oracle degree %d should exceed service oracle %d", degE, degS)
	}
	_, degB, err := Oracle{Objective: MinBalanced}.Search(cfg, demand(), c, 6)
	if err != nil {
		t.Fatal(err)
	}
	if degB < degS || degB > degE {
		t.Fatalf("balanced oracle %d outside [%d, %d]", degB, degS, degE)
	}
}

// TestPickIsSearchOverOneSweep: Search is Sweep then Pick, so a caller after
// several objectives at one cell (Fig. 15) sweeps once — every objective's
// pick over the shared sweep is the run its own Search returns — and an empty
// sweep is the same typed error either way.
func TestPickIsSearchOverOneSweep(t *testing.T) {
	cfg := platform.AWSLambda()
	const c, seed = 600, 6
	all, err := Sweep(cfg, demand(), c, seed, cfg.Shape.MaxDegree(demand()))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{MinTotalService, MinTailService, MinMedianService, MinExpense, MinBalanced} {
		o := Oracle{Objective: obj}
		want, deg, err := o.Search(cfg, demand(), c, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Pick(all)
		if err != nil || got != want || got.Degree != deg {
			t.Errorf("%s: Pick = %+v (%v), Search = %+v at degree %d", obj, got, err, want, deg)
		}
	}
	if _, err := (Oracle{}).Pick(nil); !errors.Is(err, ErrNoFeasibleDegree) {
		t.Errorf("Pick over an empty sweep: %v, want ErrNoFeasibleDegree", err)
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

func TestOracleInfeasible(t *testing.T) {
	cfg := platform.AWSLambda()
	d := demand()
	d.MemoryMB = cfg.Shape.MemoryMB + 1
	if _, _, err := (Oracle{}).Search(cfg, d, 10, 1); err == nil {
		t.Fatal("oversized function accepted")
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{NoPacking{}, SerialBatching{BatchSize: 50},
		Staggered{DelaySec: 0.1}, Pywren{}, Oracle{Objective: MinExpense}} {
		if s.Name() == "" {
			t.Fatal("empty strategy name")
		}
	}
	if got := (Oracle{Objective: MinTailService}).Name(); got != "Oracle (tail service time)" {
		t.Fatalf("unexpected name %q", got)
	}
}
