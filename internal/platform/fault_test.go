package platform

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/interfere"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// crashyConfig injects mid-execution crashes with a budget generous enough
// that bursts still complete.
func crashyConfig(rate float64) Config {
	cfg := AWSLambda()
	cfg.CrashRate = rate
	cfg.Retry = resilience.Backoff{Kind: resilience.Exponential, BaseSec: 1, CapSec: 30, MaxAttempts: 50}
	return cfg
}

func TestCrashInjectionRetriesAndBills(t *testing.T) {
	d := workload.Video{}.Demand() // ~100 s at degree 1
	b := Burst{Demand: d, Functions: 300, Degree: 2, Seed: 31}
	clean, err := Run(AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(crashyConfig(0.002), b) // λT ≈ 0.21 per attempt
	if err != nil {
		t.Fatal(err)
	}
	// λT ≈ 0.21 over 150 instances ⇒ ~30 crashes expected.
	if faulty.Crashes < 5 || faulty.Crashes > 150 {
		t.Fatalf("implausible crash count %d", faulty.Crashes)
	}
	// Aggregates must match the timelines.
	var crashes int
	var failedSec float64
	for _, tl := range faulty.Timelines() {
		crashes += tl.Crashes
		failedSec += tl.FailedSec
		if tl.End <= tl.Start {
			t.Fatalf("instance %d never completed: %+v", tl.Index, tl)
		}
		if tl.Crashes > 0 && tl.FailedSec <= 0 {
			t.Fatalf("instance %d crashed without billed failed time", tl.Index)
		}
	}
	if crashes != faulty.Crashes {
		t.Fatalf("aggregate crashes %d != timeline sum %d", faulty.Crashes, crashes)
	}
	if failedSec <= 0 {
		t.Fatal("crashes recorded but no failed seconds billed")
	}
	// Failed attempts are billed: crashes must raise compute and waste.
	if faulty.ComputeUSD <= clean.ComputeUSD {
		t.Fatalf("crashes should raise compute spend: %g vs %g", faulty.ComputeUSD, clean.ComputeUSD)
	}
	if faulty.WastedUSD <= 0 {
		t.Fatal("crashes should produce wasted spend")
	}
	if faulty.WastedUSD >= faulty.ComputeUSD {
		t.Fatalf("waste %g cannot exceed compute %g", faulty.WastedUSD, faulty.ComputeUSD)
	}
	// Re-runs delay completion.
	if faulty.TotalServiceTime() <= clean.TotalServiceTime() {
		t.Fatalf("crashes should lengthen service time: %g vs %g",
			faulty.TotalServiceTime(), clean.TotalServiceTime())
	}
	// Each crash re-invokes: the per-request bill grows with it.
	if faulty.RequestUSD <= clean.RequestUSD {
		t.Fatal("crash relaunches should pay per-request fees")
	}
}

func TestCrashInjectionExhaustedBudgetFailsBurst(t *testing.T) {
	cfg := AWSLambda()
	cfg.CrashRate = 0.5 // λT ≈ 50: attempts essentially never survive
	cfg.Retry = resilience.Backoff{Kind: resilience.Fixed, BaseSec: 1, MaxAttempts: 2}
	d := workload.Video{}.Demand()
	_, err := Run(cfg, Burst{Demand: d, Functions: 20, Degree: 1, Seed: 32})
	if !errors.Is(err, ErrExecFailed) {
		t.Fatalf("expected ErrExecFailed, got %v", err)
	}
}

func TestExecTimeoutKillsAndRetries(t *testing.T) {
	// Base execution fits the timeout; straggled attempts (3×) do not, so
	// timeouts are survived by retrying until a healthy attempt lands.
	cfg := AWSLambda()
	cfg.ExecTimeoutSec = 150
	cfg.StragglerProb = 0.3
	cfg.StragglerFactor = 3
	cfg.Retry = resilience.Backoff{Kind: resilience.Fixed, BaseSec: 2, MaxAttempts: 50}
	d := workload.Video{}.Demand()
	res, err := Run(cfg, Burst{Demand: d, Functions: 200, Degree: 1, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeouts == 0 {
		t.Fatal("expected straggled attempts to hit the timeout")
	}
	for _, tl := range res.Timelines() {
		if tl.End <= tl.Start {
			t.Fatalf("instance %d never completed: %+v", tl.Index, tl)
		}
		// A timed-out attempt bills exactly the timeout.
		if tl.Timeouts > 0 && tl.FailedSec < float64(tl.Timeouts)*cfg.ExecTimeoutSec-1e-9 {
			t.Fatalf("instance %d: %d timeouts billed only %g s", tl.Index, tl.Timeouts, tl.FailedSec)
		}
	}

	// A timeout below the base execution time can never be satisfied: the
	// burst fails once the budget is spent.
	cfg.StragglerProb = 0
	cfg.StragglerFactor = 0
	cfg.ExecTimeoutSec = 50
	cfg.Retry.MaxAttempts = 3
	_, err = Run(cfg, Burst{Demand: d, Functions: 10, Degree: 1, Seed: 34})
	if !errors.Is(err, ErrExecFailed) {
		t.Fatalf("expected ErrExecFailed for unsatisfiable timeout, got %v", err)
	}
}

func TestStragglerInjectionLengthensTail(t *testing.T) {
	d := workload.Video{}.Demand()
	b := Burst{Demand: d, Functions: 400, Degree: 2, Seed: 35}
	clean, err := Run(AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AWSLambda()
	cfg.StragglerProb = 0.1
	cfg.StragglerFactor = 4
	slow, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	var straggled int
	for _, tl := range slow.Timelines() {
		straggled += tl.Straggled
	}
	// p=0.1 over 200 instances ⇒ ~20 stragglers expected.
	if straggled < 5 || straggled > 60 {
		t.Fatalf("implausible straggler count %d", straggled)
	}
	if slow.TotalServiceTime() <= clean.TotalServiceTime() {
		t.Fatal("stragglers should lengthen total service time")
	}
	// Stragglers hurt the tail far more than the median.
	tailGrowth := slow.ServiceTimeAtQuantile(95) - clean.ServiceTimeAtQuantile(95)
	medGrowth := slow.ServiceTimeAtQuantile(50) - clean.ServiceTimeAtQuantile(50)
	if tailGrowth <= medGrowth {
		t.Fatalf("straggler damage should concentrate in the tail: tail +%g, median +%g",
			tailGrowth, medGrowth)
	}
}

func TestHedgingCutsStragglerTail(t *testing.T) {
	d := workload.Video{}.Demand()
	b := Burst{Demand: d, Functions: 400, Degree: 2, Seed: 36}
	cfg := AWSLambda()
	cfg.StragglerProb = 0.15
	cfg.StragglerFactor = 3
	unhedged, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hedge = resilience.Hedge{Quantile: 90}
	hedged, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.HedgesLaunched == 0 {
		t.Fatal("no hedges launched despite stragglers past p90")
	}
	if hedged.HedgesWon == 0 {
		t.Fatal("3× stragglers should lose to their duplicates")
	}
	if hedged.HedgesWon > hedged.HedgesLaunched {
		t.Fatalf("hedge wins %d exceed launches %d", hedged.HedgesWon, hedged.HedgesLaunched)
	}
	// First-finisher-wins: hedging strictly improves the straggler tail...
	if hedged.TotalServiceTime() >= unhedged.TotalServiceTime() {
		t.Fatalf("hedging should cut the tail: %g vs %g",
			hedged.TotalServiceTime(), unhedged.TotalServiceTime())
	}
	// ...and pays for it: the losing copies are billed as waste (note the
	// total compute can still drop — a winning duplicate truncates its
	// straggling primary) and every duplicate pays the per-request fee.
	if hedged.WastedUSD <= unhedged.WastedUSD {
		t.Fatal("hedge losers should be billed as waste")
	}
	if hedged.RequestUSD <= unhedged.RequestUSD {
		t.Fatal("hedge launches should pay per-request fees")
	}
	for _, tl := range hedged.Timelines() {
		if tl.HedgeWon && !tl.Hedged {
			t.Fatal("hedge won without being launched")
		}
		if tl.Hedged && tl.HedgeExtraSec <= 0 {
			t.Fatalf("instance %d hedged with no duplicate time billed", tl.Index)
		}
	}
}

// TestZeroRateFaultMachineryIsBitForBit is the determinism acceptance
// property: a config with the whole fault-tolerance machinery configured but
// every injection rate at zero must reproduce today's results bit-for-bit,
// for any seed and burst shape.
func TestZeroRateFaultMachineryIsBitForBit(t *testing.T) {
	d := workload.Video{}.Demand()
	f := func(cRaw uint16, degRaw uint8, seed int64) bool {
		c := int(cRaw)%600 + 1
		deg := int(degRaw)%10 + 1
		b := Burst{Demand: d, Functions: c, Degree: deg, Seed: seed}
		plain, err := Run(AWSLambda(), b)
		if err != nil {
			return false
		}
		cfg := AWSLambda()
		cfg.CrashRate = 0
		cfg.StartFailureProb = 0
		cfg.StragglerProb = 0
		cfg.ExecTimeoutSec = 890 // present but never binding (MaxExecSec gates first)
		cfg.Retry = resilience.Backoff{Kind: resilience.Decorrelated, BaseSec: 1, CapSec: 60, MaxAttempts: 8}
		wired, err := Run(cfg, b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(plain.Timelines(), wired.Timelines()) &&
			plain.ComputeUSD == wired.ComputeUSD &&
			plain.RequestUSD == wired.RequestUSD &&
			plain.StorageUSD == wired.StorageUSD &&
			wired.WastedUSD == 0 &&
			wired.Crashes == 0 && wired.Timeouts == 0 &&
			wired.HedgesLaunched == 0 && wired.StartRetries == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMixedBurstInheritsFaultInjection: the heterogeneous path shares
// runControlPlane, so injection must work there too.
func TestMixedBurstInheritsFaultInjection(t *testing.T) {
	cfg := crashyConfig(0.002)
	d := workload.Video{}.Demand()
	bins := make([]Bin, 100)
	for i := range bins {
		bins[i].Demands = []interfere.Demand{d, d}
	}
	res, err := RunMixed(cfg, MixedBurst{Bins: bins, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("mixed burst saw no crashes under injection")
	}
	if res.WastedUSD <= 0 {
		t.Fatal("mixed burst crashes should bill waste")
	}
	if math.IsNaN(res.ExpenseUSD()) || res.ExpenseUSD() <= 0 {
		t.Fatal("bad expense")
	}
}
