package funcx

import (
	"testing"

	"repro/internal/core"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/workload"
)

func TestConfigValid(t *testing.T) {
	if err := Config().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFuncXScalesFasterThanLambda reproduces paper Fig. 18's first finding:
// serverless workers spawned with FuncX scale faster than AWS Lambda at
// high concurrency (≈15% at C=5000).
func TestFuncXScalesFasterThanLambda(t *testing.T) {
	d := workload.Video{}.Demand()
	b := platform.Burst{Demand: d, Functions: 5000, Degree: 1, Seed: 1}
	fx, err := platform.Run(Config(), b)
	if err != nil {
		t.Fatal(err)
	}
	aws, err := platform.Run(platform.AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	ratio := fx.ScalingTime() / aws.ScalingTime()
	if ratio > 0.95 || ratio < 0.6 {
		t.Fatalf("FuncX/Lambda scaling ratio %.2f, want ≈0.85 (15%% faster)", ratio)
	}
}

// TestPackedExecSlowerOnFuncX reproduces Fig. 18's second finding: packed
// execution is slower on FuncX than on Lambda because pods isolate
// co-resident work less well than Firecracker microVMs.
func TestPackedExecSlowerOnFuncX(t *testing.T) {
	d := workload.Video{}.Demand()
	b := platform.Burst{Demand: d, Functions: 16, Degree: 8, Seed: 2}
	fx, err := platform.Run(Config(), b)
	if err != nil {
		t.Fatal(err)
	}
	aws, err := platform.Run(platform.AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	ratio := fx.MeanExecSeconds() / aws.MeanExecSeconds()
	if ratio < 1.05 || ratio > 1.25 {
		t.Fatalf("FuncX/Lambda packed exec ratio %.3f, want ≈1.12", ratio)
	}
}

// TestProPackOnFuncX runs the full pipeline against the FuncX platform:
// packing must pay off there too (paper: "ProPack is also effective in
// mitigating the scalability bottleneck of the FuncX framework").
func TestProPackOnFuncX(t *testing.T) {
	cfg := Config()
	d := workload.StatelessCost{}.Demand()
	const c = 2000
	run, err := orchestrator.RunProPack(cfg, d, c, core.Balanced(), 3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := orchestrator.Execute(cfg, d, c, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if run.Plan.Degree < 2 {
		t.Fatalf("no packing chosen on FuncX: degree %d", run.Plan.Degree)
	}
	got := run.MetricsWithOverhead()
	if got.TotalService >= base.TotalService {
		t.Fatalf("ProPack no faster on FuncX: %g vs %g", got.TotalService, base.TotalService)
	}
	if got.ExpenseUSD >= base.ExpenseUSD {
		t.Fatalf("ProPack no cheaper on FuncX: $%g vs $%g", got.ExpenseUSD, base.ExpenseUSD)
	}
}
