package propack

import (
	"testing"
)

// TestAdviseReliableAgreesAtZeroRates: with no failures modeled, a request
// carrying a failure model is the plain request, exactly.
func TestAdviseReliableAgreesAtZeroRates(t *testing.T) {
	cfg := AWSLambda()
	d := VideoWorkload().Demand()
	for _, w := range []Weights{Balanced(), ServiceOnly(), ExpenseOnly()} {
		blind, err := Advise(cfg, d, 2000, w)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := AdviseRequest(cfg, d, Request{C: 2000, Weights: w, Failure: FailureModel{RetryDelaySec: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if blind.Plan != rel.Plan.Plan || rel.Plan.MemMB != 0 {
			t.Fatalf("zero-rate plans diverged:\nblind %+v\nrel   %+v", blind.Plan, rel.Plan)
		}
	}
}

// TestAdviseReliableBeatsBlindUnderCrashes is the end-to-end acceptance
// check: under mid-execution crash injection, the failure-aware advisor
// recommends a strictly lower packing degree than the failure-blind one —
// deep packing makes every crash lose (and re-bill) more work — and that
// lower degree wins in actual simulation.
func TestAdviseReliableBeatsBlindUnderCrashes(t *testing.T) {
	cfg := AWSLambda()
	d := VideoWorkload().Demand()
	const c = 2000
	fm := FailureModel{CrashRate: 0.005, RetryDelaySec: 5} // λ·ET ≈ 0.7–1.5 over the degree range

	// The simulation platform mirrors the modeled failure rate, with a
	// budget generous enough that bursts complete.
	run := cfg
	run.CrashRate = fm.CrashRate
	run.Retry = Backoff{Kind: BackoffExponential, BaseSec: 2, CapSec: 60, MaxAttempts: 200}
	seeds := []int64{1, 2, 3, 4, 5}

	// Expense objective: crashes inflate per-instance compute by e^{λT}, so
	// the blind "pack as deep as possible" answer overshoots.
	blindE, err := Advise(cfg, d, c, ExpenseOnly())
	if err != nil {
		t.Fatal(err)
	}
	relE, err := AdviseRequest(cfg, d, Request{C: c, Weights: ExpenseOnly(), Failure: fm})
	if err != nil {
		t.Fatal(err)
	}
	if relE.Plan.Degree >= blindE.Plan.Degree {
		t.Fatalf("reliable advisor must pick a strictly lower degree: blind %d, reliable %d",
			blindE.Plan.Degree, relE.Plan.Degree)
	}
	for _, seed := range seeds {
		mb, err := Run(run, d, c, blindE.Plan.Degree, seed)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := Run(run, d, c, relE.Plan.Degree, seed)
		if err != nil {
			t.Fatal(err)
		}
		if mr.ExpenseUSD >= mb.ExpenseUSD {
			t.Fatalf("seed %d: reliable degree %d should be cheaper than blind %d under crashes: $%.4f vs $%.4f",
				seed, relE.Plan.Degree, blindE.Plan.Degree, mr.ExpenseUSD, mb.ExpenseUSD)
		}
		if mr.Crashes == 0 || mb.Crashes == 0 {
			t.Fatalf("seed %d: injection inactive (crashes %d/%d)", seed, mr.Crashes, mb.Crashes)
		}
	}

	// Balanced objective: the service side of the trade — retried deep
	// instances stretch the makespan, so the lower degree also finishes
	// sooner on average.
	blindB, err := Advise(cfg, d, c, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	relB, err := AdviseRequest(cfg, d, Request{C: c, Weights: Balanced(), Failure: fm})
	if err != nil {
		t.Fatal(err)
	}
	if relB.Plan.Degree >= blindB.Plan.Degree {
		t.Fatalf("balanced reliable degree %d not below blind %d", relB.Plan.Degree, blindB.Plan.Degree)
	}
	var svcBlind, svcRel float64
	for _, seed := range seeds {
		mb, err := Run(run, d, c, blindB.Plan.Degree, seed)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := Run(run, d, c, relB.Plan.Degree, seed)
		if err != nil {
			t.Fatal(err)
		}
		svcBlind += mb.TotalService
		svcRel += mr.TotalService
	}
	if svcRel >= svcBlind {
		t.Fatalf("reliable balanced plan should cut mean service under crashes: %.0f vs %.0f s",
			svcRel/float64(len(seeds)), svcBlind/float64(len(seeds)))
	}
}
