package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/interfere"
	"repro/internal/platform"
	"repro/internal/workload"
)

func TestSampleDegreesMatchPaperCounts(t *testing.T) {
	// Sec. 2.1: 20, 8, and 15 sample points for Video (max 40), Sort (15),
	// and Stateless Cost (30).
	cases := []struct{ max, want int }{{40, 20}, {15, 8}, {30, 15}, {1, 1}, {2, 1}, {0, 0}}
	for _, tc := range cases {
		ds := SampleDegrees(tc.max)
		if len(ds) != tc.want {
			t.Fatalf("SampleDegrees(%d) has %d points, want %d", tc.max, len(ds), tc.want)
		}
		for i, d := range ds {
			if d != 2*i+1 {
				t.Fatalf("SampleDegrees(%d) = %v: not alternate points", tc.max, ds)
			}
		}
	}
}

// fakeMeasurer returns values from closed-form curves and counts probes.
type fakeMeasurer struct {
	et         ETModel
	sc         ScalingModel
	execCalls  int
	scaleCalls int
	failAbove  int // degrees above this return ErrDegreeInfeasible (0 = never)
}

func (f *fakeMeasurer) MeasureExec(degree int) (float64, error) {
	f.execCalls++
	if f.failAbove > 0 && degree > f.failAbove {
		return 0, fmt.Errorf("%w: fake limit", ErrDegreeInfeasible)
	}
	return f.et.At(degree), nil
}

func (f *fakeMeasurer) MeasureScaling(instances int) (float64, error) {
	f.scaleCalls++
	return f.sc.At(float64(instances)), nil
}

func TestBuildModelsRecoversFakes(t *testing.T) {
	fm := &fakeMeasurer{
		et: ETModel{MfuncGB: 0.25, Alpha: 0.15, Intercept: 4},
		sc: ScalingModel{B1: 2e-5, B2: 0.01, B3: 0},
	}
	models, etS, scS, ov, err := BuildModels(fm, ProfileOptions{
		MaxDegree: 40, MfuncGB: 0.25, RatePerInstanceSec: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, models.ET.Alpha, 0.15, 1e-9, "recovered α")
	approx(t, models.Scaling.B1, 2e-5, 1e-10, "recovered β1")
	if len(etS) != 20 || fm.execCalls != 20*3 {
		t.Fatalf("interference probes: %d samples, %d calls (want 20 samples × 3 trials)",
			len(etS), fm.execCalls)
	}
	if len(scS) != len(DefaultScalingProbes()) || fm.scaleCalls != len(scS) {
		t.Fatalf("scaling probes: %d", len(scS))
	}
	if ov.ExecProbeSec <= 0 || ov.ExecProbeUSD <= 0 || ov.ScalingProbeSec <= 0 {
		t.Fatalf("overhead not accounted: %+v", ov)
	}
	if models.MaxDegree != 40 {
		t.Fatalf("max degree %d, want 40", models.MaxDegree)
	}
}

func TestBuildModelsFullSweep(t *testing.T) {
	fm := &fakeMeasurer{et: ETModel{MfuncGB: 0.5, Alpha: 0.1, Intercept: 3},
		sc: ScalingModel{B1: 1e-5, B2: 0.01}}
	_, etS, _, _, err := BuildModels(fm, ProfileOptions{
		MaxDegree: 15, MfuncGB: 0.5, RatePerInstanceSec: 1e-4, FullSweep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(etS) != 15 {
		t.Fatalf("full sweep sampled %d degrees, want 15", len(etS))
	}
}

// TestBuildModelsLowersInfeasibleMaxDegree: the train stops at its first
// infeasible probe, caps the degree just below it, and bills nothing past it.
func TestBuildModelsLowersInfeasibleMaxDegree(t *testing.T) {
	fm := &fakeMeasurer{et: ETModel{MfuncGB: 0.25, Alpha: 0.3, Intercept: 4},
		sc: ScalingModel{B1: 1e-5, B2: 0.01}, failAbove: 20}
	const rate = 1e-4
	models, etS, _, ov, err := BuildModels(fm, ProfileOptions{
		MaxDegree: 40, MfuncGB: 0.25, RatePerInstanceSec: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Probing 1,3,…: degree 21 fails, so the cap is 20.
	if models.MaxDegree != 20 {
		t.Fatalf("max degree %d, want 20", models.MaxDegree)
	}
	// Ten degrees of three trials, then the one failing call at 21.
	if len(etS) != 10 || fm.execCalls != 10*probeTrials+1 {
		t.Fatalf("%d samples from %d calls, want 10 from %d", len(etS), fm.execCalls, 10*probeTrials+1)
	}
	var want Overhead
	for d := 1; d <= 19; d += 2 {
		for range probeTrials {
			et := fm.et.At(d)
			want.ExecProbeSec += et
			want.ExecProbeUSD += et * rate
		}
	}
	if ov.ExecProbeSec != want.ExecProbeSec || ov.ExecProbeUSD != want.ExecProbeUSD {
		t.Fatalf("probe overhead %+v, want degrees 1–19 only: %+v", ov, want)
	}
}

// TestConcurrentProbeInfeasibleTruncation covers the early-stop path on the
// simulator: when the platform's execution limit caps the feasible degree,
// the probe train finds the cap at the first infeasible sampled degree and
// bills only the probes below it, storage fees included.
func TestConcurrentProbeInfeasibleTruncation(t *testing.T) {
	cfg := platform.AWSLambda()
	cfg.MaxExecSec = 60 // high packing degrees blow the limit
	d := interfere.Demand{CPUSeconds: 20, MemoryMB: 256, InputMB: 40, OutputMB: 10, ShuffleFraction: 0.3}
	opts := ProfileOptionsFor(cfg, d)
	meas := &SimMeasurer{Config: cfg, Demand: d, Seed: 1}
	models, etS, _, ov, err := BuildModels(meas, opts)
	if err != nil {
		t.Fatal(err)
	}
	if last := etS[len(etS)-1].Degree; models.MaxDegree >= opts.MaxDegree || models.MaxDegree != last+1 {
		t.Fatalf("simulator cap %d of %d after sampling up to degree %d, want the next sampled degree − 1",
			models.MaxDegree, opts.MaxDegree, last)
	}
	// Three trials per feasible degree, then the one failing call.
	if n := int64(len(etS)*probeTrials + 1); meas.calls != n {
		t.Fatalf("truncated train made %d probe calls, want %d", meas.calls, n)
	}

	// Replaying the feasible probes on a fresh measurer gives the bill.
	replay := &SimMeasurer{Config: cfg, Demand: d, Seed: 1}
	var want Overhead
	for _, s := range etS {
		for range probeTrials {
			et, err := replay.MeasureExec(s.Degree)
			if err != nil {
				t.Fatalf("replay at degree %d: %v", s.Degree, err)
			}
			want.ExecProbeSec += et
			want.ExecProbeUSD += et * opts.RatePerInstanceSec
			want.ExecProbeUSD += replay.LastProbeStorageUSD()
		}
	}
	if ov.ExecProbeSec != want.ExecProbeSec || ov.ExecProbeUSD != want.ExecProbeUSD {
		t.Fatalf("probe overhead %+v, want the feasible degrees' only: %+v", ov, want)
	}
}

// TestMeasureExecAfterBuildModelsDrawsNextSeed: BuildModels makes exactly
// its train's MeasureExec calls, so a direct probe after it — the ablation
// drivers' truth probes — draws call N + 1's seed.
func TestMeasureExecAfterBuildModelsDrawsNextSeed(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.Video{}.Demand()
	meas := &SimMeasurer{Config: cfg, Demand: d, Seed: 1}
	_, etS, _, _, err := BuildModels(meas, ProfileOptionsFor(cfg, d))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(etS) * probeTrials)
	if meas.calls != n {
		t.Fatalf("BuildModels made %d probe calls, want %d", meas.calls, n)
	}
	for i, deg := range []int{1, 3, 5} {
		want, _, errW := (&SimMeasurer{Config: cfg, Demand: d, Seed: 1}).execProbe(deg, n+int64(i)+1)
		got, errG := meas.MeasureExec(deg)
		if errW != nil || errG != nil || got != want {
			t.Fatalf("truth probe %d at degree %d: %g (%v), want call %d's %g (%v)", i, deg, got, errG, n+int64(i)+1, want, errW)
		}
	}
}

// panickyMeasurer is a SimMeasurer whose interference probe at one degree
// trips a simulator invariant, as a corrupt config would.
type panickyMeasurer struct {
	*SimMeasurer
	at int
}

func (p panickyMeasurer) MeasureExec(degree int) (float64, error) {
	if degree == p.at {
		panic("sim: scheduling event at non-finite time NaN")
	}
	return p.SimMeasurer.MeasureExec(degree)
}

// TestBuildModelsProbePanicReachesCaller: a probe's panic unwinds through
// BuildModels to its caller — the stack the daemon's recover,
// flightGroup.Do and the scaling store all sit on.
func TestBuildModelsProbePanicReachesCaller(t *testing.T) {
	cfg := platform.AWSLambda()
	d := workload.Video{}.Demand()
	defer func() {
		msg := fmt.Sprint(recover()) + "\n" + string(debug.Stack())
		for _, want := range []string{"non-finite time NaN", "panickyMeasurer", "MeasureExec", "BuildModels"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("recovered value and stack lack %q:\n%s", want, msg)
			}
		}
	}()
	_, _, _, _, err := BuildModels(panickyMeasurer{&SimMeasurer{Config: cfg, Demand: d, Seed: 1}, 3}, ProfileOptionsFor(cfg, d))
	t.Fatalf("BuildModels returned (err %v), want a panic", err)
}

func TestBuildModelsInfeasibleAtDegreeOne(t *testing.T) {
	wrap := measurerFunc{
		exec:  func(int) (float64, error) { return 0, ErrDegreeInfeasible },
		scale: func(int) (float64, error) { return 1, nil },
	}
	if _, _, _, _, err := BuildModels(wrap, ProfileOptions{MaxDegree: 10, MfuncGB: 0.5, RatePerInstanceSec: 1e-4}); !errors.Is(err, ErrDegreeInfeasible) {
		t.Fatalf("expected ErrDegreeInfeasible, got %v", err)
	}
}

type measurerFunc struct {
	exec  func(int) (float64, error)
	scale func(int) (float64, error)
}

func (m measurerFunc) MeasureExec(d int) (float64, error)    { return m.exec(d) }
func (m measurerFunc) MeasureScaling(c int) (float64, error) { return m.scale(c) }

func TestBuildModelsValidation(t *testing.T) {
	fm := &fakeMeasurer{et: ETModel{MfuncGB: 1, Alpha: 0.1, Intercept: 1},
		sc: ScalingModel{B1: 1e-5}}
	if _, _, _, _, err := BuildModels(fm, ProfileOptions{MaxDegree: 0, MfuncGB: 1, RatePerInstanceSec: 1}); err == nil {
		t.Fatal("MaxDegree 0 accepted")
	}
	if _, _, _, _, err := BuildModels(fm, ProfileOptions{MaxDegree: 5, MfuncGB: 0, RatePerInstanceSec: 1}); err == nil {
		t.Fatal("MfuncGB 0 accepted")
	}
	if _, _, _, _, err := BuildModels(fm, ProfileOptions{MaxDegree: 5, MfuncGB: 1, RatePerInstanceSec: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

// TestSimMeasurerEndToEnd builds real models from the simulator and checks
// they reproduce the paper's qualitative structure.
func TestSimMeasurerEndToEnd(t *testing.T) {
	cfg := platform.AWSLambda()
	w := workload.Video{}
	meas := &SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: 42}
	opts := ProfileOptionsFor(cfg, w.Demand())
	if opts.MaxDegree != 40 {
		t.Fatalf("Video max degree %d, want 40", opts.MaxDegree)
	}
	models, etS, scS, ov, err := BuildModels(meas, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(etS) == 0 || len(scS) == 0 {
		t.Fatal("no samples collected")
	}
	// The fitted ET model must track the measured points reasonably (the
	// fit is in log space; allow 20% pointwise).
	for _, s := range etS {
		pred := models.ET.At(s.Degree)
		if math.Abs(pred-s.ETSec)/s.ETSec > 0.20 {
			t.Fatalf("ET model off at degree %d: predicted %g, measured %g", s.Degree, pred, s.ETSec)
		}
	}
	// Scaling model should track the emergent scaling closely. Small
	// absolute error is tolerated at the low end, where pipeline constants
	// (builder/NIC makespans) bend the curve away from the pure quadratic.
	for _, s := range scS {
		pred := models.Scaling.At(float64(s.Instances))
		if math.Abs(pred-s.ScalingSec) > 0.08*s.ScalingSec+5 {
			t.Fatalf("scaling model off at %d instances: predicted %g, measured %g",
				s.Instances, pred, s.ScalingSec)
		}
	}
	// Overhead must be small relative to one real run at C=5000 (paper: <1%).
	base, err := platform.Run(cfg, platform.Burst{Demand: w.Demand(), Functions: 5000, Degree: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ov.ExecProbeUSD > 0.05*base.ExpenseUSD() {
		t.Fatalf("interference-probe overhead too large: $%g vs run $%g", ov.ExecProbeUSD, base.ExpenseUSD())
	}
	// And the recommendation must beat the baseline when actually executed.
	plan, err := models.PlanFor(5000, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degree < 2 {
		t.Fatalf("expected packing at C=5000, got degree %d", plan.Degree)
	}
	packed, err := platform.Run(cfg, platform.Burst{Demand: w.Demand(), Functions: 5000, Degree: plan.Degree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if packed.TotalServiceTime() > 0.5*base.TotalServiceTime() {
		t.Fatalf("ProPack plan should at least halve service time at C=5000: %g vs %g",
			packed.TotalServiceTime(), base.TotalServiceTime())
	}
	if packed.ExpenseUSD() > 0.7*base.ExpenseUSD() {
		t.Fatalf("ProPack plan should cut expense substantially: $%g vs $%g",
			packed.ExpenseUSD(), base.ExpenseUSD())
	}
}

// TestChiSquareValidationOnSimulator mirrors Sec. 2.4: the analytical
// models' predictions across packing degrees must pass the paper's χ² test
// against observed service times and expenses.
func TestChiSquareValidationOnSimulator(t *testing.T) {
	cfg := platform.AWSLambda()
	for _, w := range workload.Motivation() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			meas := &SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: 7}
			models, _, _, _, err := BuildModels(meas, ProfileOptionsFor(cfg, w.Demand()))
			if err != nil {
				t.Fatal(err)
			}
			c := 1000
			var obs []Observation
			for _, deg := range SampleDegrees(min(models.MaxDegree, 29)) {
				res, err := platform.Run(cfg, platform.Burst{Demand: w.Demand(), Functions: c, Degree: deg, Seed: 3})
				if err != nil {
					break
				}
				obs = append(obs, Observation{
					Degree:     deg,
					ServiceSec: res.TotalServiceTime(),
					ExpenseUSD: res.ExpenseUSD(),
				})
			}
			sv, ev, err := models.ValidateModels(c, obs, PaperValidationDF)
			if err != nil {
				t.Fatal(err)
			}
			if !sv.Accepted {
				t.Errorf("service-time model rejected: %v", sv)
			}
			if !ev.Accepted {
				t.Errorf("expense model rejected: %v", ev)
			}
		})
	}
}

func TestValidateModelsErrors(t *testing.T) {
	m := synthModels()
	if _, _, err := m.ValidateModels(100, nil, 14); err == nil {
		t.Fatal("empty observations accepted")
	}
	if _, _, err := m.ValidateModels(100, []Observation{{Degree: 0, ServiceSec: 1, ExpenseUSD: 1}}, 14); err == nil {
		t.Fatal("degree-0 observation accepted")
	}
}
