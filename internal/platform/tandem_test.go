package platform

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/interfere"
	"repro/internal/obs"
)

// The tandem solver's proof (tandem.go, DESIGN §16): a dice-free burst solved
// by its stage recurrences is, bit for bit and trace byte for trace byte, the
// burst the event engine simulates. elide_test.go makes that comparison on
// the presets; here it is aimed at the one thing the recurrence has to
// reason about — events at the same instant — with stage constants drawn
// from a set where sums collide all the time. A tie the solver cannot order
// falls back, so every trial must agree; what these tests add is that the
// ties it does order, it orders as the engine does, and that it orders most.

// tieProne holds the stage constants the randomized suites draw from: zero,
// equal values, powers of two (sums stay exact, so distinct paths land on
// the same instant) and the presets' own.
var tieProne = []float64{0, 0, 1, 1, 2, 2, 4, 0.5, 0.25, 0.125, 0.0625, 1.0 / 1024, 3, 0.1, 0.06, 2.5e-3, 48e-6, 40e-6}

// tandemLight is small enough that no degree the suites draw meets a
// platform's execution limit.
var tandemLight = interfere.Demand{CPUSeconds: 2, IOSeconds: 0.5, MemoryMB: 128, InputMB: 1, OutputMB: 1}

// tieProneConfig draws a platform whose stages collide: constants from
// tieProne, 1–8 servers per stage, pods of 0–9.
func tieProneConfig(pick func(n int) int) Config {
	cfg := Providers()[pick(3)]
	at := func() float64 { return tieProne[pick(len(tieProne))] }
	cfg.SchedBaseSec, cfg.SchedPerBusySec, cfg.SchedServers = at(), at(), 1+pick(8)
	cfg.BuildSec, cfg.BuildGrowthSec, cfg.BuildServers = at(), at(), 1+pick(8)
	cfg.ShipSec, cfg.ShipGrowthSec, cfg.ShipServers = at(), at(), 1+pick(8)
	cfg.BootSec, cfg.WarmStartSec = at(), at()
	cfg.PodSize = pick(10)
	return cfg
}

// forcedEvented is cfg with an account limit that can never throttle n
// instances: observably the same platform, but outside the solver's gate.
func forcedEvented(cfg Config, n int) Config {
	cfg.ConcurrencyLimit = n
	return cfg
}

// tracedRun runs one burst with a JSONL recorder attached and returns the
// Result, the trace bytes and how many times the solver fell back.
func tracedRun(t *testing.T, what string, run func(obs.Recorder) (*Result, error)) (*Result, []byte, int64) {
	t.Helper()
	var buf bytes.Buffer
	before := tandemFallbacks.Load()
	res, err := run(obs.NewJSONL(&buf))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return res, buf.Bytes(), tandemFallbacks.Load() - before
}

// sameRun requires two traced runs to agree on every Result bit and every
// trace byte.
func sameRun(t *testing.T, what string, got *Result, gotTrace []byte, want *Result, wantTrace []byte) {
	t.Helper()
	sameResultBits(t, what, got, want)
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("%s: JSONL traces differ", what)
	}
}

// tandemCase is a burst on a tie-prone platform spelled as small integers —
// the fuzz target's arguments, so a named case below and a corpus file under
// testdata/fuzz are the same thing. Stage constants index tieProne; servers
// packs the three server counts, minus one, three bits each.
type tandemCase struct {
	schedBase, schedGrowth, buildBase, buildGrowth, shipBase, shipGrowth, boot, warmStart uint8
	servers                                                                               uint16
	pod                                                                                   uint8
	functions                                                                             uint16
	degree, warm, stagger                                                                 uint8
}

func (c tandemCase) build() (Config, Burst) {
	at := func(i uint8) float64 { return tieProne[int(i)%len(tieProne)] }
	cfg := AWSLambda()
	cfg.SchedBaseSec, cfg.SchedPerBusySec, cfg.SchedServers = at(c.schedBase), at(c.schedGrowth), 1+int(c.servers&7)
	cfg.BuildSec, cfg.BuildGrowthSec, cfg.BuildServers = at(c.buildBase), at(c.buildGrowth), 1+int(c.servers>>3&7)
	cfg.ShipSec, cfg.ShipGrowthSec, cfg.ShipServers = at(c.shipBase), at(c.shipGrowth), 1+int(c.servers>>6&7)
	cfg.BootSec, cfg.WarmStartSec, cfg.PodSize = at(c.boot), at(c.warmStart), int(c.pod%10)
	return cfg, Burst{
		Demand: tandemLight, Functions: 1 + int(c.functions%600), Degree: 1 + int(c.degree%8),
		Warm: int(c.warm % 16), StaggerSec: at(c.stagger), Seed: 1,
	}
}

// check runs the case through the solver's gate and forced through the
// engine, requires the same bits and trace bytes, and reports how many times
// the solver fell back.
func (c tandemCase) check(t *testing.T, what string) int64 {
	t.Helper()
	cfg, b := c.build()
	run := func(cfg Config) func(obs.Recorder) (*Result, error) {
		return func(rec obs.Recorder) (*Result, error) {
			b := b
			b.Recorder = rec
			return Run(cfg, b)
		}
	}
	solved, solvedTrace, fellBack := tracedRun(t, what, run(cfg))
	evented, eventedTrace, _ := tracedRun(t, what+" (forced)", run(forcedEvented(cfg, b.Instances())))
	sameRun(t, what+": gated vs evented", solved, solvedTrace, evented, eventedTrace)
	return fellBack
}

// sameInstantCases are the orderings a naive recurrence gets wrong, on
// constants chosen so the collision is exact (indices into tieProne: 2 → 1,
// 4 → 2, 6 → 4, 7 → ½, 8 → ¼). The first two must be solved, to the engine's
// bits; the third cannot be, and must fall back.
var sameInstantCases = []struct {
	name      string
	c         tandemCase
	fallbacks int64
}{
	// Placements complete at 1, 2, 3, …; a build takes 2 + served/2 on one of
	// three builders. Build 0 (begun at 1) completes at 3, the instant
	// placement 2 (begun at 2) arrives: the completion was scheduled first,
	// so the arrival — which finds a free builder either way — must already
	// count it.
	{"a completion at the arrival's instant, a server free",
		tandemCase{schedBase: 2, buildBase: 4, buildGrowth: 7, shipBase: 8, boot: 9, warmStart: 10, servers: 2 << 3, functions: 23}, 0},
	// Two schedulers place in pairs at 1, 2, 3, …; two builders take
	// 4 + served/2. Builds 0 and 1 complete together at 5 with six jobs
	// queued: each completion counts itself and starts one job, so the two
	// jobs starting at 5 see served = 1 and 2, not 2 and 2.
	{"completions at one instant, every server busy",
		tandemCase{schedBase: 2, buildBase: 6, buildGrowth: 7, shipBase: 8, boot: 9, warmStart: 10, servers: 1 | 1<<3, functions: 23}, 0},
	// Placement and build both take 1: build 0 and placement 1 are scheduled
	// at t = 1 by one handler and complete at t = 2. Which goes first is the
	// engine's sequence number, which no stage can see.
	{"scheduled at one instant, completing at one instant",
		tandemCase{schedBase: 2, buildBase: 2, shipBase: 8, boot: 9, warmStart: 10, servers: 1 << 3, functions: 23}, 1},
}

// TestTandemSameInstant walks the solver through sameInstantCases.
func TestTandemSameInstant(t *testing.T) {
	for _, tc := range sameInstantCases {
		if got := tc.c.check(t, tc.name); got != tc.fallbacks {
			t.Errorf("%s: the solver fell back %d times, want %d", tc.name, got, tc.fallbacks)
		}
	}
}

// TestTandemDifferential is the randomized half: tie-prone platforms, warm
// prefixes, stagger, a packed short last instance, mixed bins — solved,
// forced through the engine and run by the closure oracle, all to the same
// bits and trace bytes. Most trials must be solved outright, and some must
// not be: the fallback is part of what is under test.
func TestTandemDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(141421))
	trials := 400
	if testing.Short() || raceEnabled {
		trials = 120
	}
	var solvedRuns, fallbackRuns, seenWarm, seenStagger, seenShortLast, seenMixed, seenPods int
	for trial := 0; trial < trials; trial++ {
		cfg := tieProneConfig(rng.Intn)
		var warm int
		if rng.Intn(2) == 0 {
			warm = 1 + rng.Intn(12)
		}
		var stagger float64
		if rng.Intn(3) == 0 {
			stagger = tieProne[rng.Intn(len(tieProne))]
		}
		seed := rng.Int63()

		var (
			what     string
			n        int
			simulate func(Config, obs.Recorder) (*Result, error)
		)
		if trial%3 != 0 {
			c, deg := 1+rng.Intn(240), 1+rng.Intn(8)
			b := Burst{Demand: tandemLight, Functions: c, Degree: deg, Warm: warm, StaggerSec: stagger, Seed: seed}
			what, n = fmt.Sprintf("trial %d Run(C=%d P=%d warm=%d stagger=%g) on %+v", trial, c, deg, warm, stagger, cfg), b.Instances()
			if c%deg != 0 {
				seenShortLast++
			}
			simulate = func(cfg Config, rec obs.Recorder) (*Result, error) {
				b.Recorder = rec
				return Run(cfg, b)
			}
		} else {
			bins := make([]Bin, 1+rng.Intn(80))
			for i := range bins {
				for k := rng.Intn(4); k >= 0; k-- {
					bins[i].Demands = append(bins[i].Demands, tandemLight)
				}
			}
			m := MixedBurst{Bins: bins, Warm: warm, StaggerSec: stagger, Seed: seed}
			what, n = fmt.Sprintf("trial %d RunMixed(bins=%d warm=%d stagger=%g) on %+v", trial, len(bins), warm, stagger, cfg), len(bins)
			seenMixed++
			simulate = func(cfg Config, rec obs.Recorder) (*Result, error) {
				m.Recorder = rec
				return RunMixed(cfg, m)
			}
		}
		run := func(cfg Config) func(obs.Recorder) (*Result, error) {
			return func(rec obs.Recorder) (*Result, error) { return simulate(cfg, rec) }
		}

		solved, solvedTrace, fellBack := tracedRun(t, what, run(cfg))
		if fellBack == 0 {
			solvedRuns++
		} else {
			fallbackRuns++
		}
		forced := forcedEvented(cfg, n)
		evented, eventedTrace, forcedFellBack := tracedRun(t, what+" (forced)", run(forced))
		if forcedFellBack != 0 {
			t.Fatalf("%s: the forced run went through the solver's gate", what)
		}
		sameRun(t, what+": solved vs evented", solved, solvedTrace, evented, eventedTrace)
		var closure *Result
		var closureTrace []byte
		withClosureControlPlane(func() { closure, closureTrace, _ = tracedRun(t, what+" (closure)", run(cfg)) })
		sameRun(t, what+": solved vs closure oracle", solved, solvedTrace, closure, closureTrace)

		if warm > 0 {
			seenWarm++
		}
		if stagger > 0 {
			seenStagger++
		}
		if cfg.PodSize > 1 {
			seenPods++
		}
	}
	t.Logf("%d trials solved outright, %d fell back", solvedRuns, fallbackRuns)
	if solvedRuns < trials/2 {
		t.Errorf("only %d of %d trials were solved without a fallback", solvedRuns, trials)
	}
	for name, n := range map[string]int{
		"the fallback": fallbackRuns, "warm prefixes": seenWarm, "staggered arrival": seenStagger,
		"a short last instance": seenShortLast, "mixed bins": seenMixed, "pods": seenPods,
	} {
		if n == 0 {
			t.Errorf("sweep never exercised %s", name)
		}
	}
}

// FuzzTandemVsEvented lets the fuzzer pick the collision: a tandemCase, field
// by field. Solved or fallen back, the burst must be the forced-evented one.
// The checked-in corpus (testdata/fuzz/FuzzTandemVsEvented) carries
// sameInstantCases and a few shapes around them — pods, a warm prefix ending
// inside a pod, stagger equal to a stage time.
func FuzzTandemVsEvented(f *testing.F) {
	f.Fuzz(func(t *testing.T, schedBase, schedGrowth, buildBase, buildGrowth, shipBase, shipGrowth, boot, warmStart uint8,
		servers uint16, pod uint8, functions uint16, degree, warm, stagger uint8) {
		c := tandemCase{schedBase, schedGrowth, buildBase, buildGrowth, shipBase, shipGrowth, boot, warmStart,
			servers, pod, functions, degree, warm, stagger}
		c.check(t, fmt.Sprintf("%+v", c))
	})
}

// TestScratchReuseAcrossSolver: the solver leaves the scratch's engine and
// stations untouched and the engine leaves the solver's rings alone, so the
// sequence that could leak is solved → fallen back → faulty → solved on one
// pooled scratch. Each run must match, bit for bit, its run on an empty pool.
func TestScratchReuseAcrossSolver(t *testing.T) {
	solvedCfg := GoogleCloudFunctions()
	solvedCfg.PodSize = 4
	// Equal scheduler and builder times: build 0 and placement 1 are
	// scheduled at one instant and complete at one instant.
	tiedCfg := AWSLambda()
	tiedCfg.SchedBaseSec, tiedCfg.SchedPerBusySec = 1, 0
	tiedCfg.BuildSec, tiedCfg.BuildGrowthSec, tiedCfg.BuildServers = 1, 0, 2
	faultyCfg := AWSLambda()
	faultyCfg.CrashRate, faultyCfg.StragglerProb, faultyCfg.StragglerFactor = 0.0005, 0.05, 2
	steps := []struct {
		cfg       Config
		b         Burst
		fallbacks int64
	}{
		{solvedCfg, Burst{Demand: tandemLight, Functions: 3000, Degree: 2, Warm: 9, Seed: 1}, 0},
		{tiedCfg, Burst{Demand: tandemLight, Functions: 500, Degree: 1, Seed: 2}, 1},
		{faultyCfg, Burst{Demand: tandemLight, Functions: 2000, Degree: 4, Warm: 3, Seed: 3}, 0},
		{solvedCfg, Burst{Demand: tandemLight, Functions: 700, Degree: 1, StaggerSec: 0.002, Seed: 4}, 0},
	}
	want := make([]*Result, len(steps))
	for i, s := range steps {
		drainScratchPool()
		before := tandemFallbacks.Load()
		res, err := Run(s.cfg, s.b)
		if err != nil {
			t.Fatal(err)
		}
		if got := tandemFallbacks.Load() - before; got != s.fallbacks {
			t.Fatalf("step %d fell back %d times, want %d: the sequence below proves nothing", i, got, s.fallbacks)
		}
		want[i] = res
	}
	withScratch(new(runScratch), func() {
		for i, s := range steps {
			got, err := Run(s.cfg, s.b)
			if err != nil {
				t.Fatal(err)
			}
			sameResultBits(t, fmt.Sprintf("step %d on the shared scratch", i), got, want[i])
		}
	})
}

// TestTandemPanics: a stage constant no validated Config carries — negative,
// NaN, infinite — must stay exactly as loud as it is on the evented path,
// which is where the solver sends it.
func TestTandemPanics(t *testing.T) {
	const n = 20
	panicOf := func(cfg Config) (p any) {
		sc := new(runScratch) // private: a panicked scratch is not fit for the pool
		sc.batch.reset(n, cfg.faulty())
		for i := 0; i < n; i++ {
			sc.batch.execs[i], sc.batch.degree[i] = 30, 1
		}
		defer func() { p = recover() }()
		_, err := runControlPlane(cfg, Burst{Functions: n, Degree: 1}, sc, nil)
		return err
	}
	for name, mutate := range map[string]func(*Config){
		"negative scheduler time": func(c *Config) { c.SchedBaseSec = -1 },
		"NaN build time":          func(c *Config) { c.BuildSec = math.NaN() },
		"infinite ship growth":    func(c *Config) { c.ShipGrowthSec = math.Inf(1) },
		"shrinking build time":    func(c *Config) { c.BuildGrowthSec, c.BuildServers = -0.5, 1 },
		"no scheduler":            func(c *Config) { c.SchedServers = 0 },
	} {
		cfg := AWSLambda()
		mutate(&cfg)
		solved, evented := panicOf(cfg), panicOf(forcedEvented(cfg, n))
		if solved == nil || evented == nil {
			t.Errorf("%s: gated run panicked with %v, evented with %v — both must panic", name, solved, evented)
		} else if solved != evented {
			t.Errorf("%s: gated run panicked with %q, evented with %q", name, solved, evented)
		}
	}
}
