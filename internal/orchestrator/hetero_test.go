package orchestrator

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workload"
)

// heteroJob pairs a compute-bound app with an I/O-leaning one at a scale
// where the scaling bottleneck dominates (total 3000 concurrent functions).
func heteroJob() []MixedApp {
	return []MixedApp{
		{Workload: workload.SmithWaterman{}, Count: 1500},
		{Workload: workload.StatelessCost{}, Count: 1500},
	}
}

func TestMixedProPackBeatsUnpacked(t *testing.T) {
	cfg := platform.AWSLambda()
	apps := heteroJob()
	base, err := ExecuteJointUnpacked(cfg, apps, 31, nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := RunMixedProPack(cfg, apps, core.Balanced(), 31, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Metrics.TotalService >= base.TotalService {
		t.Fatalf("planned packing no faster: %g vs %g", mixed.Metrics.TotalService, base.TotalService)
	}
	if mixed.Metrics.ExpenseUSD >= base.ExpenseUSD {
		t.Fatalf("planned packing no cheaper: $%g vs $%g", mixed.Metrics.ExpenseUSD, base.ExpenseUSD)
	}
	if mixed.Plan.Instances() >= base.Instances {
		t.Fatal("plan did not reduce instance count")
	}
	if mixed.Plan.Strategy != "mixed" && mixed.Plan.Strategy != "segregated" {
		t.Fatalf("unknown strategy %q", mixed.Plan.Strategy)
	}
}

// TestPlannerPrefersSegregationForUnequalDurations: Smith-Waterman (~102 s
// solo) and Stateless Cost (~40 s solo) should not share instances — the
// short functions would be billed for the long instances' wall time — so
// the planner must pick the segregated composition for this pair.
func TestPlannerPrefersSegregationForUnequalDurations(t *testing.T) {
	cfg := platform.AWSLambda()
	mixed, err := RunMixedProPack(cfg, heteroJob(), core.Balanced(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Plan.Strategy != "segregated" {
		t.Fatalf("expected segregated composition for unequal solo durations, got %q",
			mixed.Plan.Strategy)
	}
}

func TestPerAppPackedIsBetterThanUnpackedAtScale(t *testing.T) {
	cfg := platform.AWSLambda()
	apps := heteroJob()
	base, err := ExecuteJointUnpacked(cfg, apps, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	perApp, degrees, err := ExecutePerAppPacked(cfg, apps, core.Balanced(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(degrees) != 2 || degrees[0] < 1 || degrees[1] < 1 {
		t.Fatalf("bad degrees %v", degrees)
	}
	// The compute-bound app must pack less than the I/O-leaning one.
	if degrees[0] >= degrees[1] {
		t.Fatalf("Smith-Waterman (%d) should pack less than Stateless Cost (%d)",
			degrees[0], degrees[1])
	}
	if perApp.TotalService >= base.TotalService || perApp.ExpenseUSD >= base.ExpenseUSD {
		t.Fatalf("per-app packing should beat unpacked at this scale:\n%+v\n%+v", perApp, base)
	}
}

// TestPlannerAtLeastAsGoodAsPerApp: the planner's candidate set includes
// the per-app composition, so (modulo model error) it cannot lose to it on
// the joint objective; allow 10% slack for model-vs-observed drift.
func TestPlannerAtLeastAsGoodAsPerApp(t *testing.T) {
	cfg := platform.AWSLambda()
	apps := heteroJob()
	perApp, _, err := ExecutePerAppPacked(cfg, apps, core.Balanced(), 33, nil)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := RunMixedProPack(cfg, apps, core.Balanced(), 33, nil)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Metrics.TotalService > 1.10*perApp.TotalService {
		t.Fatalf("planned service %g far worse than per-app %g",
			planned.Metrics.TotalService, perApp.TotalService)
	}
	if planned.Metrics.ExpenseUSD > 1.10*perApp.ExpenseUSD {
		t.Fatalf("planned expense $%g far worse than per-app $%g",
			planned.Metrics.ExpenseUSD, perApp.ExpenseUSD)
	}
}

// TestMixedWinsForSimilarDurations: Video (~100 s solo, light pressure) and
// Smith-Waterman (~102 s solo, heavy pressure) have matched durations, so
// cross-application bins give the compute-bound members lighter neighbours
// at no ride-along cost — the mixed composition should win the service
// objective.
func TestMixedWinsForSimilarDurations(t *testing.T) {
	cfg := platform.AWSLambda()
	apps := []MixedApp{
		{Workload: workload.Video{}, Count: 1000},
		{Workload: workload.SmithWaterman{}, Count: 1000},
	}
	planned, err := RunMixedProPack(cfg, apps, core.ServiceOnly(), 34, nil)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Plan.Strategy != "mixed" {
		t.Fatalf("expected mixed composition for duration-matched apps, got %q", planned.Plan.Strategy)
	}
	// And it must beat the per-app composition on its objective.
	perApp, _, err := ExecutePerAppPacked(cfg, apps, core.ServiceOnly(), 34, nil)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Metrics.TotalService >= perApp.TotalService {
		t.Fatalf("mixed composition should win on service: %g vs %g",
			planned.Metrics.TotalService, perApp.TotalService)
	}
}

func TestBuildAppsValidation(t *testing.T) {
	cfg := platform.AWSLambda()
	if _, _, _, err := buildApps(cfg, nil, 1); err == nil {
		t.Fatal("empty app set accepted")
	}
	if _, err := RunMixedProPack(cfg, nil, core.Balanced(), 1, nil); err == nil {
		t.Fatal("empty job accepted")
	}
}

// burstCounter is a Recorder that counts the bursts it is told of.
type burstCounter struct{ bursts int }

func (b *burstCounter) BeginBurst(obs.BurstInfo) { b.bursts++ }
func (*burstCounter) Span(obs.Span)              {}
func (*burstCounter) Event(obs.Event)            {}

// TestMixedDoorsJudgeCountsFirst: ExecuteJointUnpacked appends a bin per
// function, ExecutePerAppPacked a demand per function, and PlanMixedJob
// profiles every app before core.PlanMixed judges the counts, so a count of
// MaxInt ran the process out of memory. Each must refuse the job first, with
// core.CheckMixedCounts' error, running no burst and allocating nothing per
// function.
func TestMixedDoorsJudgeCountsFirst(t *testing.T) {
	cfg := platform.AWSLambda()
	for _, counts := range [][2]int{{math.MaxInt, 5}, {5, math.MaxInt}} {
		want := core.CheckMixedCounts(counts[:]...)
		if want == nil {
			t.Fatalf("%v: core.CheckMixedCounts accepts the job", counts)
		}
		apps := []MixedApp{{Workload: workload.Video{}, Count: counts[0]}, {Workload: workload.SmithWaterman{}, Count: counts[1]}}
		rec := &burstCounter{}
		for name, door := range map[string]func() error{
			"ExecuteJointUnpacked": func() error { _, err := ExecuteJointUnpacked(cfg, apps, 1, rec); return err },
			"ExecutePerAppPacked": func() error {
				_, _, err := ExecutePerAppPacked(cfg, apps, core.Balanced(), 1, rec)
				return err
			},
			"PlanMixedJob": func() error { _, _, err := PlanMixedJob(cfg, apps, core.Balanced(), 1); return err },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := door()
			runtime.ReadMemStats(&after)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s %v: error %v, want %v", name, counts, err, want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("%s %v: %d bytes allocated before the refusal", name, counts, got)
			}
		}
		if rec.bursts != 0 {
			t.Errorf("%v: %d bursts ran before the refusal", counts, rec.bursts)
		}
	}
}
