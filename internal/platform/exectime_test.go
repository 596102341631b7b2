package platform_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/funcx"
	"repro/internal/interfere"
	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// The options byte of a FuzzExecTime input: each bit puts the platform
// outside the solved probe, so ExecTime must hand the probe to Run.
const (
	probeStartFailures = 1 << iota // fault dice at boot
	probeStragglers                // fault dice at execution
	probeHedge                     // a speculative duplicate past the median
	probeThrottle                  // an account limit of one instance
	probeDeclined                  // stage constants whose one-instance path overflows: refused
)

// execProbe is one decoded FuzzExecTime input.
type execProbe struct {
	cfg    platform.Config
	d      interfere.Demand
	degree int
}

// execProbeOf decodes an input: one of the three presets or FuncX (pods), one
// of the five applications, a degree from 0 (a malformed burst) to the
// memory bound's MaxDegree + 2 and the options byte's platform changes.
func execProbeOf(plat, app, degree, opts uint8) execProbe {
	cfg := append(platform.Providers(), funcx.Config())[plat%4]
	d := workload.All()[int(app)%len(workload.All())].Demand()
	if opts&probeStartFailures != 0 {
		cfg.StartFailureProb = 0.3
	}
	if opts&probeStragglers != 0 {
		cfg.StragglerProb, cfg.StragglerFactor = 0.5, 3
	}
	if opts&probeHedge != 0 {
		cfg.Hedge = resilience.Hedge{Quantile: 50}
	}
	if opts&probeThrottle != 0 {
		cfg.ConcurrencyLimit = 1
	}
	if opts&probeDeclined != 0 {
		// Equal, finite stage constants whose sum overflows: the one way a
		// one-instance probe, which meets no tie, could go bad in the solver.
		// Config.Validate refuses it, so neither the solver nor the engine
		// sees it.
		cfg.SchedBaseSec, cfg.BuildSec, cfg.ShipSec = 1e308, 1e308, 1e308
	}
	return execProbe{cfg: cfg, d: d, degree: int(degree) % (cfg.Shape.MaxDegree(d) + 3)}
}

// probeOutcome is what one probe returned, or the panic it raised, and how
// many times the solver fell back meanwhile.
type probeOutcome struct {
	execSec, feesUSD float64
	err              error
	panicked         any
	fallbacks        int64
}

func outcomeOf(probe func() (float64, float64, error)) (o probeOutcome) {
	before := platform.TandemFallbacks()
	defer func() { o.panicked, o.fallbacks = recover(), platform.TandemFallbacks()-before }()
	o.execSec, o.feesUSD, o.err = probe()
	return o
}

// checkExecTime runs p's probe through ExecTime and through the Run it stands
// for, and requires the same bits of both scalars, the same error (text and
// ErrExecLimit), the same panic, and the same move of the solver's fallback
// counter. It returns ExecTime's outcome.
func checkExecTime(t *testing.T, p execProbe, seed int64) probeOutcome {
	t.Helper()
	what := fmt.Sprintf("%s, %+v at degree %d, seed %d", p.cfg.Name, p.d, p.degree, seed)
	want := outcomeOf(func() (float64, float64, error) {
		res, err := platform.Run(p.cfg, platform.Burst{Demand: p.d, Functions: p.degree, Degree: p.degree, Seed: seed})
		if err != nil {
			return 0, 0, err
		}
		return res.MeanExecSeconds(), res.StorageUSD + res.RequestUSD, nil
	})
	got := outcomeOf(func() (float64, float64, error) { return platform.ExecTime(p.cfg, p.d, p.degree, seed) })
	if got.fallbacks != want.fallbacks {
		t.Errorf("%s: the solver fell back %d times under ExecTime, %d under Run", what, got.fallbacks, want.fallbacks)
	}
	if fmt.Sprint(got.panicked) != fmt.Sprint(want.panicked) {
		t.Fatalf("%s: ExecTime panicked with %v, Run with %v", what, got.panicked, want.panicked)
	}
	if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
		t.Fatalf("%s: ExecTime's error %v, Run's %v", what, got.err, want.err)
	}
	if errors.Is(got.err, platform.ErrExecLimit) != errors.Is(want.err, platform.ErrExecLimit) {
		t.Fatalf("%s: ErrExecLimit is %v under ExecTime, %v under Run", what,
			errors.Is(got.err, platform.ErrExecLimit), errors.Is(want.err, platform.ErrExecLimit))
	}
	if math.Float64bits(got.execSec) != math.Float64bits(want.execSec) || math.Float64bits(got.feesUSD) != math.Float64bits(want.feesUSD) {
		t.Fatalf("%s: ExecTime (%v s, $%v), Run (%v s, $%v)", what, got.execSec, got.feesUSD, want.execSec, want.feesUSD)
	}
	return got
}

// execTimeSeed is one FuzzExecTime input.
type execTimeSeed struct {
	plat, app, degree, opts uint8
	seed                    int64
}

// execTimeSeeds is FuzzExecTime's seed corpus: each platform and application,
// the degrees at both ends (0, MaxDegree + 2, the execution limit at a full
// and at a last instance), negative seeds, and each option alone and all
// together. Xapian at degree 20 on Lambda is a probe whose execution seconds
// are end − start, not the drawn duration, to the last bit.
var execTimeSeeds = []execTimeSeed{
	{0, 0, 1, 0, 1},
	{0, 4, 20, 0, 5},
	{1, 1, 7, 0, -42},
	{2, 2, 30, 0, 9},
	{3, 4, 20, 0, 5},
	{3, 3, 12, 0, math.MinInt64},
	{0, 0, 42, 0, 7},  // MaxDegree + 2
	{0, 3, 35, 0, 3},  // Smith-Waterman past Lambda's limit from degree 31
	{2, 0, 41, 0, -1}, // Video past Azure's limit from degree 41
	{0, 0, 0, 0, 1},   // no function: the burst's validation error
	{0, 0, 8, probeStartFailures, 11},
	{1, 0, 8, probeStragglers, -12},
	{2, 1, 4, probeHedge, 13},
	{3, 2, 6, probeThrottle, 14},
	{0, 0, 4, probeDeclined, 15},
	{1, 3, 3, 1<<5 - 1, 16},
}

// FuzzExecTime holds Eq. 1's probe to Run (checkExecTime) on a platform,
// application, degree, options byte and seed. TestExecTimeCorpus holds its
// seed corpus to reaching every path.
func FuzzExecTime(f *testing.F) {
	for _, s := range execTimeSeeds {
		f.Add(s.plat, s.app, s.degree, s.opts, s.seed)
	}
	f.Fuzz(func(t *testing.T, plat, app, degree, opts uint8, seed int64) {
		checkExecTime(t, execProbeOf(plat, app, degree, opts), seed)
	})
}

// TestExecTimeDeclinedOnce: the one probe the solver could decline, stage
// constants whose one-instance path overflows, is refused by validation, with
// Run's error: the solver's fallback counter does not move and nothing
// panics.
func TestExecTimeDeclinedOnce(t *testing.T) {
	o := checkExecTime(t, execProbeOf(0, 0, 4, probeDeclined), 1)
	if o.fallbacks != 0 || o.panicked != nil || o.err == nil || !strings.HasPrefix(o.err.Error(), "platform AWS Lambda: ") {
		t.Fatalf("the overflowing probe fell back %d times, panicked with %v and returned %v: want none, none and the platform's refusal",
			o.fallbacks, o.panicked, o.err)
	}
}

// TestExecTimeCorpus: FuzzExecTime's seed corpus reaches every platform and
// application, a negative seed, a malformed degree, the execution limit, the
// solved probe and each of the options byte's ways into Run — one bit at a
// time, so that each is the only reason.
func TestExecTimeCorpus(t *testing.T) {
	reached := map[string]bool{}
	for _, s := range execTimeSeeds {
		p := execProbeOf(s.plat, s.app, s.degree, s.opts)
		o := checkExecTime(t, p, s.seed)
		reached[p.cfg.Name] = true
		reached[fmt.Sprint("app ", s.app%5)] = true
		reached["negative seed"] = reached["negative seed"] || s.seed < 0
		switch opts := s.opts; {
		case p.degree == 0 && o.err != nil:
			reached["malformed degree"] = true
		case errors.Is(o.err, platform.ErrExecLimit):
			reached["execution limit"] = true
		case opts == 0 && o.err == nil && o.panicked == nil && o.fallbacks == 0:
			reached["solved"] = true
		case opts == probeDeclined && o.err != nil && o.fallbacks == 0 && o.panicked == nil:
			reached[fmt.Sprint("option ", opts)] = true
		case opts&(opts-1) == 0 && opts != probeDeclined:
			reached[fmt.Sprint("option ", opts)] = true
		}
	}
	for _, want := range []string{"AWS Lambda", "Google Cloud Functions", "Azure Functions", "FuncX",
		"app 0", "app 1", "app 2", "app 3", "app 4", "negative seed", "malformed degree", "execution limit", "solved",
		fmt.Sprint("option ", probeStartFailures), fmt.Sprint("option ", probeStragglers), fmt.Sprint("option ", probeHedge),
		fmt.Sprint("option ", probeThrottle), fmt.Sprint("option ", probeDeclined)} {
		if !reached[want] {
			t.Errorf("FuzzExecTime's seed corpus never reaches %q", want)
		}
	}
}
