package orchestrator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestExecuteBasics(t *testing.T) {
	m, err := Execute(platform.AWSLambda(), workload.Sort{}.Demand(), 300, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Degree != 5 || m.Instances != 60 {
		t.Fatalf("identity wrong: %+v", m)
	}
	if m.TotalService <= 0 || m.ExpenseUSD <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
}

func TestRunProPackBeatsBaseline(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.StatelessCost{}.Demand()
	const c = 3000
	run, err := RunProPack(cfg, d, c, core.Balanced(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if run.Plan.Degree < 2 {
		t.Fatalf("expected packing at C=%d, got degree %d", c, run.Plan.Degree)
	}
	base, err := Execute(cfg, d, c, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	withOv := run.MetricsWithOverhead()
	if withOv.TotalService >= base.TotalService {
		t.Fatalf("ProPack no faster: %g vs %g", withOv.TotalService, base.TotalService)
	}
	if withOv.ExpenseUSD >= base.ExpenseUSD {
		t.Fatalf("ProPack no cheaper even with overhead: $%g vs $%g",
			withOv.ExpenseUSD, base.ExpenseUSD)
	}
	if withOv.ExpenseUSD <= run.Metrics.ExpenseUSD {
		t.Fatal("overhead accounting did not increase expense")
	}
}

// TestWarmReuseStacksWithPacking: a pool covering the whole packed burst
// removes the remaining cold-start path, so the time to the last start
// (scaling time, measured from invocation) drops — reuse and packing
// compose. Total service time, measured from the *first* start, is
// insensitive to uniform provisioning savings by construction.
func TestWarmReuseStacksWithPacking(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.Video{}.Demand()
	const c, deg = 1600, 8 // 200 instances
	packed, err := Execute(cfg, d, c, deg, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := platform.Run(cfg, platform.Burst{Demand: d, Functions: c, Degree: deg, Warm: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stacked := trace.FromResult(res)
	if stacked.ScalingTime >= packed.ScalingTime {
		t.Fatalf("warm reuse should cut the packed burst's scaling time: %g vs %g",
			stacked.ScalingTime, packed.ScalingTime)
	}
	if stacked.TotalService > packed.TotalService*1.02 {
		t.Fatalf("stacking should not hurt service: %g vs %g",
			stacked.TotalService, packed.TotalService)
	}
	if _, err := platform.Run(cfg, platform.Burst{Demand: d, Functions: c, Degree: deg, Warm: -1, Seed: 5}); err == nil {
		t.Fatal("negative pool accepted")
	}
}

// TestWarmPoolClampEquivalence pins the clamp semantics: a pool larger than
// the instance count behaves exactly like a pool of all instances, for every
// degree shape (including a ragged last instance).
func TestWarmPoolClampEquivalence(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.Video{}.Demand()
	for _, tc := range []struct{ c, deg int }{{100, 1}, {100, 7}, {64, 8}} {
		n := (tc.c + tc.deg - 1) / tc.deg
		var m [2]trace.Metrics
		for i, warm := range []int{n, n*10 + 1} {
			res, err := platform.Run(cfg, platform.Burst{Demand: d, Functions: tc.c, Degree: tc.deg, Warm: warm, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			m[i] = trace.FromResult(res)
		}
		if m[0] != m[1] {
			t.Fatalf("c=%d deg=%d: oversized pool diverged from full pool:\nexact %+v\nover  %+v",
				tc.c, tc.deg, m[0], m[1])
		}
		// An all-warm burst has no cold path left: warm-start-only scaling.
		if m[0].ScalingTime <= 0 {
			t.Fatalf("degenerate scaling time %g", m[0].ScalingTime)
		}
	}
}
