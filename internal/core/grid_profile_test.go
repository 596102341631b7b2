package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestBuildGridModelsRecoversFakes drives the grid pipeline with closed-form
// measurers at three sizes and checks the assembly contract: per-size α and
// rate, one shared scaling model fitted from the base (largest) size only,
// and a grid that validates.
func TestBuildGridModelsRecoversFakes(t *testing.T) {
	mkFake := func(alpha float64) *fakeMeasurer {
		return &fakeMeasurer{
			et: ETModel{MfuncGB: 0.25, Alpha: alpha, Intercept: 4},
			sc: ScalingModel{B1: 2e-5, B2: 0.01, B3: 0},
		}
	}
	fakes := []*fakeMeasurer{mkFake(0.45), mkFake(0.25), mkFake(0.15)}
	probes := []SizeProbe{
		{MemMB: 2048, Meas: fakes[0], Opts: ProfileOptions{MaxDegree: 10, MfuncGB: 0.25, RatePerInstanceSec: 2e-5}},
		{MemMB: 4096, Meas: fakes[1], Opts: ProfileOptions{MaxDegree: 20, MfuncGB: 0.25, RatePerInstanceSec: 4e-5}},
		{MemMB: 8192, Meas: fakes[2], Opts: ProfileOptions{MaxDegree: 40, MfuncGB: 0.25, RatePerInstanceSec: 8e-5}},
	}
	g, ov, err := BuildGridModels(probes)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("built grid does not validate: %v", err)
	}
	if len(g.Sizes) != 3 {
		t.Fatalf("grid has %d sizes, want 3", len(g.Sizes))
	}
	wantAlpha := []float64{0.45, 0.25, 0.15}
	for i, s := range g.Sizes {
		approx(t, s.Models.ET.Alpha, wantAlpha[i], 1e-9, "per-size α")
		if s.Models.RatePerInstanceSec != probes[i].Opts.RatePerInstanceSec {
			t.Fatalf("size %g MB rate %g, want %g", s.MemMB, s.Models.RatePerInstanceSec, probes[i].Opts.RatePerInstanceSec)
		}
		// The scaling model is shared: one fit, stamped into every size.
		if s.Models.Scaling != g.Sizes[0].Models.Scaling {
			t.Fatalf("size %g MB has its own scaling model", s.MemMB)
		}
		approx(t, s.Models.Scaling.B1, 2e-5, 1e-10, "shared β1")
	}
	// Scaling was probed once, at the base size only.
	if fakes[0].scaleCalls != 0 || fakes[1].scaleCalls != 0 {
		t.Fatalf("scaling probed at non-base sizes: %d, %d", fakes[0].scaleCalls, fakes[1].scaleCalls)
	}
	if fakes[2].scaleCalls != len(DefaultScalingProbes()) {
		t.Fatalf("base size ran %d scaling probes, want %d", fakes[2].scaleCalls, len(DefaultScalingProbes()))
	}
	if ov.ScalingProbeSec <= 0 || ov.ExecProbeSec <= 0 {
		t.Fatalf("overhead not accounted: %+v", ov)
	}
	if b := g.Base(); b.ET.Alpha != g.Sizes[2].Models.ET.Alpha {
		t.Fatalf("Base() is not the largest size: %+v", b)
	}
}

// TestBuildGridModelsNamesFailingSize pins the satellite contract: a
// per-size fit failure surfaces stats.ErrNonFinite through errors.Is AND
// names the offending memory size in the message, so a multi-size probe run
// is debuggable without re-running every size.
func TestBuildGridModelsNamesFailingSize(t *testing.T) {
	good := &fakeMeasurer{
		et: ETModel{MfuncGB: 0.5, Alpha: 0.2, Intercept: 3},
		sc: ScalingModel{B1: 1e-5, B2: 0.01},
	}
	nan := measurerFunc{
		exec:  func(int) (float64, error) { return math.NaN(), nil },
		scale: func(int) (float64, error) { return 1, nil },
	}
	probes := []SizeProbe{
		{MemMB: 2048, Meas: good, Opts: ProfileOptions{MaxDegree: 10, MfuncGB: 0.5, RatePerInstanceSec: 1e-4}},
		{MemMB: 4096, Meas: nan, Opts: ProfileOptions{MaxDegree: 10, MfuncGB: 0.5, RatePerInstanceSec: 1e-4}},
	}
	_, _, err := BuildGridModels(probes)
	if !errors.Is(err, stats.ErrNonFinite) {
		t.Fatalf("got %v, want stats.ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "4096 MB") {
		t.Fatalf("error %q does not name the failing memory size", err)
	}
	if strings.Contains(err.Error(), "2048") {
		t.Fatalf("error %q blames the healthy size", err)
	}
}

func TestBuildGridModelsRejectsBadSizeOrder(t *testing.T) {
	fm := &fakeMeasurer{et: ETModel{MfuncGB: 0.5, Alpha: 0.2, Intercept: 3},
		sc: ScalingModel{B1: 1e-5, B2: 0.01}}
	opts := ProfileOptions{MaxDegree: 10, MfuncGB: 0.5, RatePerInstanceSec: 1e-4}
	if _, _, err := BuildGridModels(nil); err == nil {
		t.Fatal("empty probe set accepted")
	}
	shuffled := []SizeProbe{{MemMB: 4096, Meas: fm, Opts: opts}, {MemMB: 2048, Meas: fm, Opts: opts}}
	if _, _, err := BuildGridModels(shuffled); !errors.Is(err, ErrNonMonotoneSizes) {
		t.Fatalf("shuffled sizes: got %v, want ErrNonMonotoneSizes", err)
	}
	dup := []SizeProbe{{MemMB: 2048, Meas: fm, Opts: opts}, {MemMB: 2048, Meas: fm, Opts: opts}}
	if _, _, err := BuildGridModels(dup); !errors.Is(err, ErrNonMonotoneSizes) {
		t.Fatalf("duplicate sizes: got %v, want ErrNonMonotoneSizes", err)
	}
}

// TestGridProbesForSimulator checks the simulator-side probe derivation:
// per-size platform resize, per-size degree caps and rates, and the typed
// rejections for bad size lists.
func TestGridProbesForSimulator(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.Video{}.Demand()
	sizes := []float64{4096, 7168, 10240}
	probes, err := GridProbesFor(cfg, d, sizes, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != len(sizes) {
		t.Fatalf("got %d probes for %d sizes", len(probes), len(sizes))
	}
	for i, sp := range probes {
		if sp.MemMB != sizes[i] {
			t.Fatalf("probe %d at %g MB, want %g", i, sp.MemMB, sizes[i])
		}
		if sp.Opts.MaxDegree < 1 {
			t.Fatalf("probe %d has MaxDegree %d", i, sp.Opts.MaxDegree)
		}
		if i > 0 {
			if probes[i].Opts.MaxDegree < probes[i-1].Opts.MaxDegree {
				t.Fatalf("degree cap shrank with memory: %d then %d",
					probes[i-1].Opts.MaxDegree, probes[i].Opts.MaxDegree)
			}
			if probes[i].Opts.RatePerInstanceSec <= probes[i-1].Opts.RatePerInstanceSec {
				t.Fatalf("expense rate must grow with memory: %g then %g",
					probes[i-1].Opts.RatePerInstanceSec, probes[i].Opts.RatePerInstanceSec)
			}
		}
	}

	if _, err := GridProbesFor(cfg, d, nil, 1); err == nil {
		t.Fatal("empty size list accepted")
	}
	if _, err := GridProbesFor(cfg, d, []float64{4096, 2048}, 1); !errors.Is(err, ErrNonMonotoneSizes) {
		t.Fatalf("descending sizes: got %v, want ErrNonMonotoneSizes", err)
	}
	if _, err := GridProbesFor(cfg, d, []float64{4096, 1 << 20}, 1); err == nil {
		t.Fatal("size above the platform cap accepted")
	}
}

// TestBuildGridModelsSimEndToEnd profiles a small real grid on the
// simulator and checks the structure the joint planner relies on: more
// memory (more CPU share) means weaker interference (smaller α) and a
// higher per-second rate, and the joint plan picks a configuration from the
// grid.
func TestBuildGridModelsSimEndToEnd(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.Video{}.Demand()
	probes, err := GridProbesFor(cfg, d, []float64{5120, 10240}, 42)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := BuildGridModels(probes)
	if err != nil {
		t.Fatal(err)
	}
	small, large := g.Sizes[0].Models, g.Sizes[1].Models
	if !(small.ET.Alpha > large.ET.Alpha) {
		t.Fatalf("interference should weaken with memory: α(5120)=%g, α(10240)=%g",
			small.ET.Alpha, large.ET.Alpha)
	}
	if !(small.RatePerInstanceSec < large.RatePerInstanceSec) {
		t.Fatalf("rate should grow with memory: %g vs %g",
			small.RatePerInstanceSec, large.RatePerInstanceSec)
	}
	if small.MaxDegree > large.MaxDegree {
		t.Fatalf("degree cap shrank with memory: %d vs %d", small.MaxDegree, large.MaxDegree)
	}
	plan, err := g.Answer(Request{C: 5000, Weights: Balanced(), SizesMB: g.MemSizesMB()})
	if err != nil {
		t.Fatal(err)
	}
	if plan.MemMB != 5120 && plan.MemMB != 10240 {
		t.Fatalf("joint plan picked off-grid memory %g", plan.MemMB)
	}
	if plan.Degree < 1 || plan.Degree > g.Sizes[1].Models.MaxDegree {
		t.Fatalf("joint plan degree %d out of range", plan.Degree)
	}
}
