package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/interfere"
	"repro/internal/orchestrator"
	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/workload"
)

// figureSeeds is the universe of experiment seeds a figures op draws from.
const figureSeeds = 4

// figuresQuick regenerates the paper's figure suite on the quick grid: the
// repository's real traffic. It drives platform and sim through thousands of
// small packed, faulty, hedged and mixed bursts fanned out by parallel — the
// opposite shape from burst-1m's single huge one.
type figuresQuick struct {
	sz     sizing
	exps   []experiments.Experiment
	golden map[string]string
	seed   int64
	last   []string
}

func newFiguresQuick(sz sizing) *figuresQuick {
	all := experiments.All()
	// The smoke subset strides through the list so it mixes cheap and costly
	// drivers instead of taking the three cheapest.
	exps := make([]experiments.Experiment, 0, sz.figures)
	for i := 0; len(exps) < sz.figures; i++ {
		exps = append(exps, all[(i*len(all)/sz.figures)%len(all)])
	}
	return &figuresQuick{sz: sz, exps: exps}
}

func (w *figuresQuick) name() string          { return "figures-quick" }
func (w *figuresQuick) drivers() int          { return 1 }
func (w *figuresQuick) unitsPerOp() float64   { return float64(len(w.exps)) }
func (w *figuresQuick) tailQuantile() float64 { return 0.9 }
func (w *figuresQuick) sliceOps() int         { return 1 }

func (w *figuresQuick) expSeed(i int) int64 { return 1 + (w.seed+int64(i))%figureSeeds }

func (w *figuresQuick) setup(seed int64, _ bool) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	w.golden = g.Figures
	w.seed = ((seed % figureSeeds) + figureSeeds) % figureSeeds
	if err := w.run(0, 0, nil, 0); err != nil {
		return err
	}
	if !w.check(0, 0) {
		return fmt.Errorf("figure tables differ from golden (regenerate with -update if intended)")
	}
	return nil
}

func (w *figuresQuick) run(_, i int, tr *tracer, parent int) error {
	cfg := experiments.Config{Seed: w.expSeed(i), Quick: true}
	w.last = w.last[:0]
	for _, e := range w.exps {
		id := tr.begin(i+1, parent, "experiments."+e.ID)
		tab, err := e.Run(cfg)
		if err != nil {
			tr.end(id)
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		// Rendering into the hash is the op's "print"; the digest is checked
		// after the op.
		h := sha256.New()
		err = tab.Fprint(h)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		w.last = append(w.last, hex.EncodeToString(h.Sum(nil)))
	}
	return nil
}

func figureKey(seed int64, id string) string { return fmt.Sprintf("%d|%s", seed, id) }

func (w *figuresQuick) check(_, i int) bool {
	seed := w.expSeed(i)
	for k, e := range w.exps {
		if want, ok := w.golden[figureKey(seed, e.ID)]; !ok || w.last[k] != want {
			return false
		}
	}
	return true
}

func (w *figuresQuick) regold(g *goldens) error {
	g.Figures = map[string]string{}
	for s := 0; s < figureSeeds; s++ {
		if err := w.run(0, s, nil, 0); err != nil {
			return err
		}
		for k, e := range w.exps {
			g.Figures[figureKey(w.expSeed(s), e.ID)] = w.last[k]
		}
	}
	return nil
}

func (w *figuresQuick) layers(agg perOp, out values) {
	for _, e := range w.exps {
		out[experimentMetric(e.ID)] = agg.durNS["experiments."+e.ID] / 1e6
	}
}

// figuresProbes measures the layers under figures-quick one at a time.
func figuresProbes(sz sizing, out values) error {
	aws, video := platform.AWSLambda(), workload.Video{}.Demand()
	const c = 2000
	reps := max(5/sz.probeScale, 2)
	maxDeg := aws.Shape.MaxDegree(video)
	sweep := func(workers int) (float64, error) {
		return medianNS(reps, func() error {
			_, err := baseline.SweepWithOptions(aws, video, c, 1, maxDeg, baseline.SweepOptions{Workers: workers})
			return err
		})
	}
	seq, err := sweep(1)
	if err != nil {
		return err
	}
	par, err := sweep(0)
	if err != nil {
		return err
	}
	out["baseline.sweep_c2000_ms"] = seq / 1e6
	out["baseline.sweep_parallel_speedup"] = seq / par

	ns, err := medianNS(reps, func() error {
		_, err := orchestrator.RunProPack(aws, video, c, core.Balanced(), 1)
		return err
	})
	if err != nil {
		return err
	}
	out["orchestrator.run_propack_ms"] = ns / 1e6

	// A packed burst with crashes, stragglers, a timeout and hedging all on.
	faulty := aws
	faulty.CrashRate = 0.002
	faulty.StragglerProb = 0.05
	faulty.StragglerFactor = 3
	faulty.ExecTimeoutSec = 600
	faulty.Retry = resilience.Backoff{Kind: resilience.Exponential, BaseSec: 2, CapSec: 60, MaxAttempts: 200}
	faulty.Hedge = resilience.Hedge{Quantile: 90}
	ns, err = medianNS(reps*4, func() error {
		_, err := platform.Run(faulty, platform.Burst{Demand: video, Functions: c, Degree: 8, Seed: 1})
		return err
	})
	if err != nil {
		return err
	}
	out["platform.run_faulty_ms"] = ns / 1e6

	// 250 bins of four Video and four Sort functions each.
	sortD := workload.Sort{}.Demand()
	bin := platform.Bin{Demands: []interfere.Demand{video, video, video, video, sortD, sortD, sortD, sortD}}
	bins := make([]platform.Bin, c/len(bin.Demands))
	for i := range bins {
		bins[i] = bin
	}
	ns, err = medianNS(reps*4, func() error {
		_, err := platform.RunMixed(aws, platform.MixedBurst{Bins: bins, Seed: 1})
		return err
	})
	if err != nil {
		return err
	}
	out["platform.run_mixed_ms"] = ns / 1e6

	// The three-application composition search of BenchmarkPlanMixed.
	apps := []core.App{
		{Name: "video", MemoryMB: 512, Count: 300, ET: core.ETModel{MfuncGB: 0.5, Alpha: 0.35, Intercept: 2.1}},
		{Name: "sort", MemoryMB: 256, Count: 400, ET: core.ETModel{MfuncGB: 0.25, Alpha: 0.55, Intercept: 1.4}},
		{Name: "xapian", MemoryMB: 1024, Count: 150, ET: core.ETModel{MfuncGB: 1.0, Alpha: 0.22, Intercept: 1.9}},
	}
	mixedOpts := core.MixedPlanOptions{
		InstanceMemoryMB: 10240, MaxExecSec: 900, Weights: core.Balanced(),
		Scaling:            core.ScalingModel{B1: 2e-6, B2: 0.004, B3: 0.1},
		RatePerInstanceSec: 0.0001667, CrossDiscount: 0.2,
	}
	ns, err = medianNS(reps*2, func() error {
		_, err := core.PlanMixed(apps, mixedOpts)
		return err
	})
	if err != nil {
		return err
	}
	out["core.plan_mixed_ms"] = ns / 1e6

	observed, expected := make([]float64, 20), make([]float64, 20)
	for i := range observed {
		expected[i] = 100 + 10*float64(i)
		observed[i] = expected[i] * (1 + 0.01*float64(i%5-2))
	}
	ns, err = perCallNS(reps, 2000/sz.probeScale, func() error {
		_, err := stats.ChiSquareTest(observed, expected, len(observed)-1, 0.005)
		return err
	})
	if err != nil {
		return err
	}
	out["stats.chi2_us"] = ns / 1e3
	return nil
}

// statsFitProbes times the two regressions behind FitET and FitScaling on
// inputs of the size Advise feeds them.
func statsFitProbes(sz sizing, out values) error {
	xs, ys := make([]float64, 20), make([]float64, 20)
	for i := range xs {
		xs[i] = 0.25 * float64(2*i+1)
		ys[i] = 2 * (1 + 0.08*xs[i]) * (1 + 0.002*float64(i%3))
	}
	reps, n := max(5/sz.probeScale, 2), 2000/sz.probeScale
	ns, err := perCallNS(reps, n, func() error {
		_, err := stats.ExpFit(xs, ys)
		return err
	})
	if err != nil {
		return err
	}
	out["stats.expfit_us"] = ns / 1e3
	px := []float64{100, 250, 500, 1000, 1500, 2000, 3000, 4000, 5000}
	py := make([]float64, len(px))
	for i, x := range px {
		py[i] = 2e-6*x*x + 0.004*x + 0.1
	}
	ns, err = perCallNS(reps, n, func() error {
		_, err := stats.PolyFit(px, py, 2)
		return err
	})
	if err != nil {
		return err
	}
	out["stats.polyfit_us"] = ns / 1e3
	return nil
}
