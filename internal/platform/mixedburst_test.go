package platform

import (
	"math"
	"testing"

	"repro/internal/interfere"
	"repro/internal/workload"
)

func singletonBins(d interfere.Demand, n int) []Bin {
	bins := make([]Bin, n)
	for i := range bins {
		bins[i] = Bin{Demands: []interfere.Demand{d}}
	}
	return bins
}

func TestRunMixedMatchesHomogeneousRun(t *testing.T) {
	cfg := AWSLambda()
	cfg.JitterRel = 0 // jitter streams differ between the two paths
	d := workload.Video{}.Demand()
	const c, deg = 120, 4

	homog, err := Run(cfg, Burst{Demand: d, Functions: c, Degree: deg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bins := make([]Bin, 0, c/deg)
	for i := 0; i < c/deg; i++ {
		var b Bin
		for j := 0; j < deg; j++ {
			b.Demands = append(b.Demands, d)
		}
		bins = append(bins, b)
	}
	mixed, err := RunMixed(cfg, MixedBurst{Bins: bins, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(homog.TotalServiceTime()-mixed.TotalServiceTime()) > 1e-9 {
		t.Fatalf("service mismatch: %g vs %g", homog.TotalServiceTime(), mixed.TotalServiceTime())
	}
	if math.Abs(homog.ExpenseUSD()-mixed.ExpenseUSD()) > 1e-9 {
		t.Fatalf("expense mismatch: $%g vs $%g", homog.ExpenseUSD(), mixed.ExpenseUSD())
	}
	if mixed.Burst.Degree != 0 || len(mixed.Bins) != c/deg || mixed.Instances() != c/deg {
		t.Fatalf("mixed result identity wrong: %+v", mixed.Burst)
	}
}

func TestRunMixedHeterogeneousBins(t *testing.T) {
	cfg := AWSLambda()
	sw := workload.SmithWaterman{}.Demand()
	sc := workload.StatelessCost{}.Demand()
	bins := []Bin{
		{Demands: []interfere.Demand{sw, sw, sc, sc, sc}},
		{Demands: []interfere.Demand{sw, sc}},
		{Demands: []interfere.Demand{sc}},
	}
	res, err := RunMixed(cfg, MixedBurst{Bins: bins, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines()) != 3 {
		t.Fatalf("instances %d, want 3", len(res.Timelines()))
	}
	if res.Timelines()[0].Degree != 5 || res.Timelines()[2].Degree != 1 {
		t.Fatalf("bin degrees wrong: %+v", res.Timelines())
	}
	// The heavier bin must run longer than the singleton.
	if res.Timelines()[0].ExecSeconds() <= res.Timelines()[2].ExecSeconds() {
		t.Fatal("5-way mixed bin should execute longer than a singleton")
	}
	if res.ExpenseUSD() <= 0 {
		t.Fatal("no bill")
	}
}

func TestRunMixedValidation(t *testing.T) {
	cfg := AWSLambda()
	d := workload.Video{}.Demand()
	if _, err := RunMixed(cfg, MixedBurst{}); err == nil {
		t.Fatal("empty burst accepted")
	}
	if _, err := RunMixed(cfg, MixedBurst{Bins: []Bin{{}}}); err == nil {
		t.Fatal("empty bin accepted")
	}
	big := d
	big.MemoryMB = 11000
	if _, err := RunMixed(cfg, MixedBurst{Bins: []Bin{{Demands: []interfere.Demand{big}}}}); err == nil {
		t.Fatal("oversized bin accepted")
	}
	if _, err := RunMixed(cfg, MixedBurst{Bins: singletonBins(d, 2), Warm: -1}); err == nil {
		t.Fatal("negative warm accepted")
	}
	cfg.MaxExecSec = 10
	if _, err := RunMixed(cfg, MixedBurst{Bins: singletonBins(d, 1)}); err == nil {
		t.Fatal("execution over the limit accepted")
	}
}

func TestGroupDemands(t *testing.T) {
	a := workload.Video{}.Demand()
	b := workload.Sort{}.Demand()
	groups := groupDemands([]interfere.Demand{a, b, a, a, b})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if groups[0].n != 3 || groups[1].n != 2 {
		t.Fatalf("group sizes %d/%d, want 3/2", groups[0].n, groups[1].n)
	}
}
