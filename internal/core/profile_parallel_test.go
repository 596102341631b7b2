package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/interfere"
	"repro/internal/platform"
)

// seqOnly hides SimMeasurer's ConcurrentMeasurer methods so BuildModels
// takes the historical sequential probe path — the oracle the parallel
// fan-out must reproduce bit-for-bit. CostMeasurer is forwarded so the
// storage fit stays part of the comparison.
type seqOnly struct {
	sm *SimMeasurer
}

func (s seqOnly) MeasureExec(degree int) (float64, error)  { return s.sm.MeasureExec(degree) }
func (s seqOnly) MeasureScaling(inst int) (float64, error) { return s.sm.MeasureScaling(inst) }
func (s seqOnly) LastProbeStorageUSD() float64             { return s.sm.LastProbeStorageUSD() }

var (
	_ Measurer     = seqOnly{}
	_ CostMeasurer = seqOnly{}
)

func probeTestConfig() (platform.Config, interfere.Demand) {
	cfg := platform.AWSLambda()
	d := interfere.Demand{
		CPUSeconds: 20, MemoryMB: 256, InputMB: 40, OutputMB: 10,
		ShuffleFraction: 0.3,
	}
	return cfg, d
}

// withProcs runs fn at GOMAXPROCS procs, restoring the setting after. The
// probe fan-out sizes its pool from GOMAXPROCS, so this is how a test
// varies the worker count.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// buildAll runs BuildModels and returns everything it produced, failing the
// test on error.
func buildAll(t *testing.T, meas Measurer, opts ProfileOptions) (Models, []ETSample, []ScalingSample, Overhead) {
	t.Helper()
	m, et, sc, ov, err := BuildModels(meas, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, et, sc, ov
}

// TestConcurrentProbeEquivalence locks in the tentpole determinism
// contract: the concurrent probe fan-out produces byte-identical models,
// samples, and overhead at every GOMAXPROCS — and to the sequential train a
// plain Measurer gets.
func TestConcurrentProbeEquivalence(t *testing.T) {
	cfg, d := probeTestConfig()
	opts := ProfileOptionsFor(cfg, d)

	wantM, wantET, wantSC, wantOV := buildAll(t,
		seqOnly{&SimMeasurer{Config: cfg, Demand: d, Seed: 1}}, opts)

	for _, procs := range []int{1, 2, 4, 8, 17} {
		var gotM Models
		var gotET []ETSample
		var gotSC []ScalingSample
		var gotOV Overhead
		withProcs(procs, func() {
			gotM, gotET, gotSC, gotOV = buildAll(t,
				&SimMeasurer{Config: cfg, Demand: d, Seed: 1}, opts)
		})
		if gotM != wantM {
			t.Fatalf("GOMAXPROCS=%d: models differ:\n got %+v\nwant %+v", procs, gotM, wantM)
		}
		if !reflect.DeepEqual(gotET, wantET) {
			t.Fatalf("GOMAXPROCS=%d: ET samples differ", procs)
		}
		if !reflect.DeepEqual(gotSC, wantSC) {
			t.Fatalf("GOMAXPROCS=%d: scaling samples differ", procs)
		}
		if gotOV != wantOV {
			t.Fatalf("GOMAXPROCS=%d: overhead differs:\n got %+v\nwant %+v", procs, gotOV, wantOV)
		}
	}
}

// TestConcurrentProbeInfeasibleTruncation covers the early-stop path: when
// the platform's execution limit caps the feasible degree, the concurrent
// fold must discover the same cap and discard speculative probes past it —
// including their overhead.
func TestConcurrentProbeInfeasibleTruncation(t *testing.T) {
	cfg, d := probeTestConfig()
	cfg.MaxExecSec = 60 // high packing degrees blow the limit
	opts := ProfileOptionsFor(cfg, d)

	wantM, wantET, wantSC, wantOV := buildAll(t,
		seqOnly{&SimMeasurer{Config: cfg, Demand: d, Seed: 1}}, opts)
	if wantM.MaxDegree >= opts.MaxDegree {
		t.Fatalf("test config not truncating: MaxDegree %d of %d", wantM.MaxDegree, opts.MaxDegree)
	}

	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			gotM, gotET, gotSC, gotOV := buildAll(t,
				&SimMeasurer{Config: cfg, Demand: d, Seed: 1}, opts)
			if gotM != wantM || gotOV != wantOV ||
				!reflect.DeepEqual(gotET, wantET) || !reflect.DeepEqual(gotSC, wantSC) {
				t.Fatalf("GOMAXPROCS=%d: truncated build differs from sequential", procs)
			}
		})
	}
}

// TestConcurrentProbeCallCounterContinuity checks AdvanceCalls: a direct
// MeasureExec after a fanned-out BuildModels must draw the same probe seed
// as it would after the sequential train (the ablation drivers interleave
// exactly this way).
func TestConcurrentProbeCallCounterContinuity(t *testing.T) {
	cfg, d := probeTestConfig()
	opts := ProfileOptionsFor(cfg, d)

	seqMeas := &SimMeasurer{Config: cfg, Demand: d, Seed: 1}
	buildAll(t, seqOnly{seqMeas}, opts)

	parMeas := &SimMeasurer{Config: cfg, Demand: d, Seed: 1}
	withProcs(4, func() { buildAll(t, parMeas, opts) })

	if seqMeas.calls != parMeas.calls {
		t.Fatalf("call counter diverged: sequential %d, concurrent %d", seqMeas.calls, parMeas.calls)
	}
	for _, deg := range []int{1, 3, 5} {
		want, errW := seqMeas.MeasureExec(deg)
		got, errG := parMeas.MeasureExec(deg)
		if errW != nil || errG != nil {
			t.Fatalf("truth probe errors: %v, %v", errW, errG)
		}
		if got != want {
			t.Fatalf("degree %d truth probe diverged: %g != %g", deg, got, want)
		}
	}
}

// panickyMeasurer is a SimMeasurer whose interference probe at one degree
// trips a simulator invariant, as a corrupt config would.
type panickyMeasurer struct {
	*SimMeasurer
	at int
}

func (p panickyMeasurer) MeasureExecCall(degree, call int) (float64, float64, error) {
	if degree == p.at {
		panic("sim: scheduling event at non-finite time NaN")
	}
	return p.SimMeasurer.MeasureExecCall(degree, call)
}

// TestBuildModelsProbePanicReachesCaller: the probes run on parallel.Map's
// workers, and a panic there must arrive on BuildModels' caller — the stack
// the daemon's recover, flightGroup.Do and the scaling store all sit on —
// not end the process.
func TestBuildModelsProbePanicReachesCaller(t *testing.T) {
	cfg, d := probeTestConfig()
	opts := ProfileOptionsFor(cfg, d)
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"non-finite time NaN", "panickyMeasurer", "MeasureExecCall"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("GOMAXPROCS=%d: recovered value lacks %q:\n%s", procs, want, msg)
					}
				}
			}()
			_, _, _, _, err := BuildModels(panickyMeasurer{&SimMeasurer{Config: cfg, Demand: d, Seed: 1}, 3}, opts)
			t.Fatalf("GOMAXPROCS=%d: BuildModels returned (err %v), want a panic", procs, err)
		})
	}
}
