package propack

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// --- Figure/table regeneration benches -------------------------------------
//
// One benchmark per paper figure: each iteration regenerates the figure's
// rows end-to-end (bursts, model fits, optimizer). They run on the reduced
// concurrency grid so `go test -bench=.` stays tractable; `cmd/expgen`
// produces the full-grid tables.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Seed: 1, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Fprint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig4(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5a(b *testing.B)      { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)      { benchExperiment(b, "fig5b") }
func BenchmarkFig6(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)      { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)      { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)      { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)      { benchExperiment(b, "fig21") }
func BenchmarkValidation(b *testing.B) { benchExperiment(b, "validation") }

// Extension experiments (paper Sec. 5 discussion, implemented here).
func BenchmarkExtHetero(b *testing.B)    { benchExperiment(b, "ext-hetero") }
func BenchmarkExtProvider(b *testing.B)  { benchExperiment(b, "ext-provider") }
func BenchmarkExtThrottle(b *testing.B)  { benchExperiment(b, "ext-throttle") }
func BenchmarkExtDecentral(b *testing.B) { benchExperiment(b, "ext-decentral") }
func BenchmarkExtAmortize(b *testing.B)  { benchExperiment(b, "ext-amortize") }
func BenchmarkExtJoint(b *testing.B)     { benchExperiment(b, "ext-joint") }

// --- Ablation benches (DESIGN.md §5) ---------------------------------------

func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkAblationSampling compares the cost of ProPack's alternate-point
// interference profile against the full sweep it avoids.
func BenchmarkAblationSampling(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "alternate"
		if full {
			name = "full-sweep"
		}
		b.Run(name, func(b *testing.B) {
			cfg := platform.AWSLambda()
			d := VideoWorkload().Demand()
			for i := 0; i < b.N; i++ {
				meas := &core.SimMeasurer{Config: cfg, Demand: d, Seed: int64(i)}
				opts := core.ProfileOptionsFor(cfg, d)
				opts.FullSweep = full
				if _, _, _, _, err := core.BuildModels(meas, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAlternatives times the strategies the paper rejects next
// to ProPack at one operating point.
func BenchmarkAblationAlternatives(b *testing.B) {
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	const c = 1000
	strategies := map[string]func(i int) error{
		"serial-batching": func(i int) error {
			_, err := (baseline.SerialBatching{BatchSize: 250}).Execute(cfg, d, c, int64(i))
			return err
		},
		"staggered": func(i int) error {
			_, err := (baseline.Staggered{DelaySec: 0.2}).Execute(cfg, d, c, int64(i))
			return err
		},
		"pywren": func(i int) error {
			_, err := (baseline.Pywren{}).Execute(cfg, d, c, int64(i))
			return err
		},
		"propack": func(i int) error {
			_, err := orchestrator.RunProPack(cfg, d, c, core.Balanced(), int64(i))
			return err
		},
	}
	for name, run := range strategies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Component microbenches -------------------------------------------------

// BenchmarkBurst5000 times one full discrete-event simulation of a 5000-
// instance burst — the workhorse behind every experiment.
func BenchmarkBurst5000(b *testing.B) {
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Run(cfg, platform.Burst{
			Demand: d, Functions: 5000, Degree: 1, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBurst5000Observed is BenchmarkBurst5000 with an in-memory span
// recorder attached. Comparing the two bounds observability's overhead; the
// nil-recorder path in BenchmarkBurst5000 must stay within noise of the
// pre-observability baseline.
func BenchmarkBurst5000Observed(b *testing.B) {
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Run(cfg, platform.Burst{
			Demand: d, Functions: 5000, Degree: 1, Seed: int64(i),
			Recorder: &obs.Memory{},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalDegree times Eq. 7's search across the full degree range.
func BenchmarkOptimalDegree(b *testing.B) {
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	meas := &core.SimMeasurer{Config: cfg, Demand: d, Seed: 1}
	models, _, _, _, err := core.BuildModels(meas, core.ProfileOptionsFor(cfg, d))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := models.OptimalDegree(5000, core.Balanced()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleSweep times the brute-force search ProPack's model
// replaces — the cost asymmetry the whole paper leans on.
func BenchmarkOracleSweep(b *testing.B) {
	cfg := platform.AWSLambda()
	d := SortWorkload().Demand()
	for i := 0; i < b.N; i++ {
		if _, _, err := (baseline.Oracle{Objective: baseline.MinTotalService}).Search(cfg, d, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Real-kernel benches: the actual Go computations behind each workload.
func BenchmarkKernels(b *testing.B) {
	kernels := []struct {
		name string
		w    Workload
	}{
		{"video", workload.Video{Frames: 4}},
		{"sort", workload.Sort{Records: 1 << 14}},
		{"resize", workload.StatelessCost{Images: 2, SrcSize: 128}},
		{"smith-waterman", workload.SmithWaterman{QueryLen: 128, Subjects: 8, SubjectLen: 128}},
		{"xapian", workload.Xapian{Docs: 500, Queries: 16}},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.w.NewTask(int64(i)).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalPacking measures real goroutine-level packing interference
// on the host machine: the same total work at increasing packing degrees.
func BenchmarkLocalPacking(b *testing.B) {
	w := workload.StatelessCost{Images: 1, SrcSize: 128}
	for _, degree := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("degree-%d", degree), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workload.RunPacked(w, degree, 2, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Planner hot-path benches ------------------------------------------------
//
// These four pin the amortized-planner work: BenchmarkAdvise is the full
// modeling-plus-planning pipeline, BenchmarkQoSPlan the Sec. 2.6 weight grid
// on prebuilt models, BenchmarkPlanMixed the heterogeneous composition
// search, and BenchmarkBurst the discrete-event burst behind every sweep
// iteration. BENCH_PLANNER.json and CHANGES.md's historical measurements
// record their trajectory.

// BenchmarkAdvise runs the end-to-end pipeline: interference and scaling
// probes, model fits, and the Eq. 5–7 degree search.
func BenchmarkAdvise(b *testing.B) {
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Advise(cfg, d, 5000, Balanced()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModels builds one set of fitted models for planner-only benches.
func benchModels(b *testing.B) core.Models {
	b.Helper()
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	meas := &core.SimMeasurer{Config: cfg, Demand: d, Seed: 1}
	models, _, _, _, err := core.BuildModels(meas, core.ProfileOptionsFor(cfg, d))
	if err != nil {
		b.Fatal(err)
	}
	return models
}

// BenchmarkQoSPlan times the Sec. 2.6 QoS weight search on prebuilt models.
// The bound is set just above the tightest achievable tail, so the search
// must walk deep into the weight grid — the paper's W_S=0.65-style regime.
func BenchmarkQoSPlan(b *testing.B) {
	models := benchModels(b)
	const c = 5000
	tightest, err := models.TailServiceAt(c, core.ServiceOnly(), 95)
	if err != nil {
		b.Fatal(err)
	}
	qos := tightest * 1.02
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := models.QoSPlan(c, qos, core.QoSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanJoint times joint degree × memory planning over a 5-size
// grid on a warm Planner — the acceptance comparison for the pruned 2-D
// argmin is against BenchmarkQoSPlan: K sizes must cost much less than K×
// the 1-D search. The cached-plan sub-benchmark is the steady-state serving
// path and must not allocate.
func BenchmarkPlanJoint(b *testing.B) {
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	sizes := []float64{2048, 4096, 6144, 8192, 10240}
	rec, err := AdviseJoint(cfg, d, 5000, Balanced(), sizes)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := NewJointPlanner(rec.Grid)
	if err != nil {
		b.Fatal(err)
	}
	const c = 5000
	// The tightest achievable tail across the grid; the bound just above it
	// forces the weight search deep into the grid, as in BenchmarkQoSPlan.
	tight := math.Inf(1)
	for _, s := range rec.Grid.Sizes {
		v, err := s.Models.TailServiceAt(c, core.ServiceOnly(), 95)
		if err != nil {
			b.Fatal(err)
		}
		if v < tight {
			tight = v
		}
	}
	qos := tight * 1.02
	if _, _, err := pl.QoSPlanJoint(c, qos, core.QoSOptions{}); err != nil {
		b.Fatal(err)
	}
	b.Run("qos", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := pl.QoSPlanJoint(c, qos, core.QoSOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pl.PlanJointFor(c, Balanced()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanMixed times the heterogeneous composition search over three
// applications of contrasting footprints.
func BenchmarkPlanMixed(b *testing.B) {
	apps := []core.App{
		{Name: "video", MemoryMB: 512, Count: 300, ET: core.ETModel{MfuncGB: 0.5, Alpha: 0.35, Intercept: 2.1}},
		{Name: "sort", MemoryMB: 256, Count: 400, ET: core.ETModel{MfuncGB: 0.25, Alpha: 0.55, Intercept: 1.4}},
		{Name: "xapian", MemoryMB: 1024, Count: 150, ET: core.ETModel{MfuncGB: 1.0, Alpha: 0.22, Intercept: 1.9}},
	}
	opts := core.MixedPlanOptions{
		InstanceMemoryMB:   10240,
		MaxExecSec:         900,
		Weights:            core.Balanced(),
		Scaling:            core.ScalingModel{B1: 2e-6, B2: 0.004, B3: 0.1},
		RatePerInstanceSec: 0.0001667,
		CrossDiscount:      0.2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanMixed(apps, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBurst times the burst inner loop at a packed degree (the planner's
// recommendation regime), complementing the degree-1 BenchmarkBurst5000.
func BenchmarkBurst(b *testing.B) {
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := platform.Run(cfg, platform.Burst{
			Demand: d, Functions: 5000, Degree: 8, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		// Metrics extraction is part of every sweep iteration; include it so
		// the quantile-scratch work is measured too.
		m := trace.FromResult(res)
		if m.TotalService <= 0 {
			b.Fatal("degenerate burst")
		}
	}
}

// BenchmarkPlannerConcurrent serves planner lookups from all procs at once
// through one shared Planner — the concurrent-serving regime the sharded,
// lock-free table cache exists for. Run with -cpu 1,2,4 to see scaling;
// before the sharded cache every goroutine serialized on one mutex.
func BenchmarkPlannerConcurrent(b *testing.B) {
	models := benchModels(b)
	pl := core.NewPlanner(models)
	concurrencies := []int{500, 1000, 2500, 5000, 7500, 10000}
	// Warm every table so the measurement is the steady-state hit path.
	for _, c := range concurrencies {
		if _, err := pl.PlanFor(c, core.Balanced()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c := concurrencies[i%len(concurrencies)]
			if _, err := pl.PlanFor(c, core.Balanced()); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// --- Parallel sweep engine benches ------------------------------------------
//
// BenchmarkSweepSequential vs BenchmarkSweepParallel measure the speedup of
// the deterministic fan-out engine on an identical exhaustive degree sweep
// (the outputs are byte-identical by construction — the determinism tests in
// internal/baseline enforce it). The parallel variant uses GOMAXPROCS
// workers, so the speedup scales with the host's core count; CHANGES.md's
// historical measurements record the ratio once measured.

func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := platform.AWSLambda()
	d := VideoWorkload().Demand()
	const c = 2000
	maxDeg := cfg.Shape.MaxDegree(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, err := baseline.SweepWithOptions(cfg, d, c, 1, maxDeg,
			baseline.SweepOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(all) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchSweep(b, 0) }
