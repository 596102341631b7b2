package platform

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/interfere"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The event-free proof. A dice-free, unthrottled run schedules nothing: it is
// solved stage by stage as three queues in tandem (tandem.go, DESIGN §16).
// Setting ConcurrencyLimit to the instance count never throttles — the run
// is observably identical — but takes the gate's other branch, so the same
// burst can be solved and simulated event by event and the two Results
// compared bit for bit, with the frozen closure control plane as the third
// witness. (tandem_test.go aims the same comparison at the ties.)

// controlPlaneFunc is the signature behind the runCP hook.
type controlPlaneFunc = func(Config, Burst, *runScratch, *sim.RNG) (*Result, error)

// withEventCounts runs fn with cp installed as the control plane and returns
// the number of events the engine scheduled across every burst fn simulated,
// and how many of them were pushed onto the engine's general queue rather
// than a station's monotone lane (RunSharded simulates its cells
// concurrently, hence the atomics).
func withEventCounts(cp controlPlaneFunc, fn func()) (scheduled, queued uint64) {
	var total, lanes atomic.Uint64
	runCP = func(cfg Config, b Burst, sc *runScratch, rng *sim.RNG) (*Result, error) {
		res, err := cp(cfg, b, sc, rng)
		total.Add(sc.eng.Scheduled())
		lanes.Add(sc.eng.LaneScheduled())
		return res, err
	}
	defer func() { runCP = runControlPlane }()
	fn()
	return total.Load(), total.Load() - lanes.Load()
}

// sameResultBits requires two Results to agree on everything a run
// computes: all 13 columns, the folded summary, the four USD fields, the
// three busy-second fields and the fault roll-up, floats compared by bit
// pattern.
func sameResultBits(t *testing.T, what string, got, want *Result) {
	t.Helper()
	g, w := &got.cols, &want.cols
	if g.n != w.n {
		t.Fatalf("%s: %d instances vs %d", what, g.n, w.n)
	}
	sameBits := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d entries vs %d", what, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v (%#x) vs %v (%#x)", what, name, i,
					a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
	}
	sameBits("schedDone", g.schedDone, w.schedDone)
	sameBits("buildDone", g.buildDone, w.buildDone)
	sameBits("shipDone", g.shipDone, w.shipDone)
	sameBits("start", g.start, w.start)
	sameBits("end", g.end, w.end)
	sameBits("failedSec", g.failedSec, w.failedSec)
	sameBits("hedgeExtraSec", g.hedgeExtraSec, w.hedgeExtraSec)
	for name, cols := range map[string][2][]int32{
		"degree": {g.degree, w.degree}, "retries": {g.retries, w.retries},
		"crashes": {g.crashes, w.crashes}, "timeouts": {g.timeouts, w.timeouts},
		"straggled": {g.straggled, w.straggled},
	} {
		if !slices.Equal(cols[0], cols[1]) {
			t.Fatalf("%s: %s columns differ", what, name)
		}
	}
	if !slices.Equal(g.flags, w.flags) {
		t.Fatalf("%s: flags columns differ", what)
	}
	sameBits("summary",
		[]float64{got.sum.maxStart, got.sum.minStart, got.sum.maxEnd, got.sum.execSec, got.sum.failedSec},
		[]float64{want.sum.maxStart, want.sum.minStart, want.sum.maxEnd, want.sum.execSec, want.sum.failedSec})
	sameBits("USD and busy seconds",
		[]float64{got.ComputeUSD, got.RequestUSD, got.StorageUSD, got.WastedUSD, got.SchedBusySec, got.BuildBusySec, got.ShipBusySec},
		[]float64{want.ComputeUSD, want.RequestUSD, want.StorageUSD, want.WastedUSD, want.SchedBusySec, want.BuildBusySec, want.ShipBusySec})
	gotFaults := rowFaults{got.StartRetries, got.Crashes, got.Timeouts, got.HedgesLaunched, got.HedgesWon}
	wantFaults := rowFaults{want.StartRetries, want.Crashes, want.Timeouts, want.HedgesLaunched, want.HedgesWon}
	if gotFaults != wantFaults {
		t.Fatalf("%s: fault roll-up %+v vs %+v", what, gotFaults, wantFaults)
	}
}

// TestElidedTailDifferential simulates randomized dice-free bursts — cold,
// warm prefixes, pods with waiting followers, staggered arrival, packed with
// a short last instance, mixed bins — solved without events, with every event
// forced, and through the closure oracle, and requires identical bits from
// all three.
func TestElidedTailDifferential(t *testing.T) {
	video := workload.Video{}.Demand()
	light := interfere.Demand{CPUSeconds: 5, MemoryMB: 128, InputMB: 5, OutputMB: 1, SharedInput: true}
	shuffly := interfere.Demand{CPUSeconds: 12, IOSeconds: 4, MemoryMB: 256, InputMB: 20, OutputMB: 8, ShuffleFraction: 0.5}
	rng := rand.New(rand.NewSource(577215))

	var verified, seenWarm, seenWarmLed, seenPodOfOne, seenFollower, seenStagger, seenShortLast, seenMixed int
	const trials = 48
	for trial := 0; trial < trials; trial++ {
		cfg := Providers()[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			cfg.PodSize = 2 + rng.Intn(7)
		}
		var warm int
		if rng.Intn(2) == 0 {
			warm = 1 + rng.Intn(12)
		}
		var stagger float64
		if rng.Intn(3) == 0 {
			stagger = rng.Float64() * 0.01
		}
		seed := rng.Int63()

		var (
			what      string
			n         int
			shortLast bool
			run       func(cfg Config) (*Result, error)
		)
		if trial%3 != 0 {
			c, deg := 1+rng.Intn(800), 1+rng.Intn(8)
			d := video
			if trial%2 == 0 {
				d = shuffly
			}
			b := Burst{Demand: d, Functions: c, Degree: deg, Warm: warm, StaggerSec: stagger, Seed: seed}
			what, n, shortLast = fmt.Sprintf("trial %d Run(%s C=%d P=%d seed=%d)", trial, cfg.Name, c, deg, seed), b.Instances(), c%deg != 0
			run = func(cfg Config) (*Result, error) { return Run(cfg, b) }
		} else {
			bins := make([]Bin, 1+rng.Intn(120))
			for i := range bins {
				for k := rng.Intn(3); k >= 0; k-- {
					bins[i].Demands = append(bins[i].Demands, light)
				}
				if rng.Intn(2) == 0 {
					bins[i].Demands = append(bins[i].Demands, video)
				}
			}
			m := MixedBurst{Bins: bins, Warm: warm, StaggerSec: stagger, Seed: seed}
			what, n = fmt.Sprintf("trial %d RunMixed(%s bins=%d seed=%d)", trial, cfg.Name, len(bins), seed), len(bins)
			run = func(cfg Config) (*Result, error) { return RunMixed(cfg, m) }
		}
		// Never throttles (at most n instances are ever admitted), but the
		// throttle's bookkeeping needs the end events, so the run is evented.
		forced := cfg
		forced.ConcurrencyLimit = n

		simulate := func(what string, cp controlPlaneFunc, cfg Config) (res *Result, events uint64) {
			var err error
			if events, _ = withEventCounts(cp, func() { res, err = run(cfg) }); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return res, events
		}
		if _, err := run(cfg); errors.Is(err, ErrExecLimit) {
			continue // this degree does not fit the provider's limit: not a burst
		}
		elided, elidedEvents := simulate(what, runControlPlane, cfg)
		evented, eventedEvents := simulate(what+" (forced)", runControlPlane, forced)
		sameResultBits(t, what+": elided vs evented", elided, evented)
		if elidedEvents >= eventedEvents {
			t.Fatalf("%s: elided run scheduled %d events, forced run %d — both took the same path",
				what, elidedEvents, eventedEvents)
		}
		closure, closureEvents := simulate(what+" (closure)", runControlPlaneClosure, cfg)
		sameResultBits(t, what+": elided vs closure oracle", elided, closure)
		if closureEvents != eventedEvents {
			t.Fatalf("%s: closure oracle scheduled %d events, forced typed run %d", what, closureEvents, eventedEvents)
		}
		c := &elided.cols
		for i := 0; i < c.n; i++ {
			// A follower that reached its pod before the image did waited
			// for the leader's ship.
			if !c.warm(i) && c.buildDone[i] == c.shipDone[i] && c.schedDone[i] < c.shipDone[i] {
				seenFollower++
			}
		}
		verified++
		if warm > 0 {
			seenWarm++
		}
		if cfg.PodSize <= 1 {
			seenPodOfOne++ // no podState at all: the instance is its own pod
		} else if warm%cfg.PodSize != 0 && warm < n {
			seenWarmLed++ // the warm prefix ends inside a pod: its first cold member leads
		}
		if stagger > 0 {
			seenStagger++
		}
		if shortLast {
			seenShortLast++
		}
		if trial%3 == 0 {
			seenMixed++
		}
	}
	if verified < 40 {
		t.Errorf("only %d of %d trials were simulated, want ≥ 40", verified, trials)
	}
	for name, n := range map[string]int{
		"warm prefixes": seenWarm, "warm-led pods": seenWarmLed, "pods of one": seenPodOfOne,
		"waiting pod followers": seenFollower, "staggered arrival": seenStagger,
		"a short last instance": seenShortLast, "mixed bins": seenMixed,
	} {
		if n == 0 {
			t.Errorf("sweep never exercised %s", name)
		}
	}
}

// TestElidedTailDifferentialPanics: a malformed boot, warm-start or
// execution duration that reaches the control plane is a bug upstream of it,
// and must stay as loud when the timer is resolved in place as when the
// engine validates the scheduled event — the same panic value on both paths.
func TestElidedTailDifferentialPanics(t *testing.T) {
	const n, bad = 20, 7
	// panicOf runs the typed control plane on a hand-built batch — past
	// Run's validation, which is the point — and returns what it panicked
	// with. Instance bad's execution duration is exec; the rest run 30 s.
	panicOf := func(cfg Config, warm int, exec float64) (p any) {
		sc := new(runScratch) // private: a panicked scratch is not fit for the pool
		sc.batch.reset(n, cfg.faulty())
		for i := 0; i < n; i++ {
			sc.batch.execs[i] = 30
			sc.batch.degree[i] = 1
			if i < warm {
				sc.batch.flags[i] |= flagWarm
			}
		}
		sc.batch.execs[bad] = exec
		defer func() { p = recover() }()
		_, _ = runControlPlane(cfg, Burst{Functions: n, Degree: 1, Warm: warm}, sc, sim.NewRNG(1))
		return nil
	}
	for _, tc := range []struct {
		name       string
		boot, exec float64
		warmStart  float64
		warm       int
	}{
		{name: "negative boot", boot: -1, exec: 30},
		{name: "NaN boot", boot: math.NaN(), exec: 30},
		{name: "infinite boot", boot: math.Inf(1), exec: 30},
		{name: "negative exec", boot: 0.125, exec: -2},
		{name: "NaN exec", boot: 0.125, exec: math.NaN()},
		{name: "infinite exec", boot: 0.125, exec: math.Inf(1)},
		{name: "NaN warm start", boot: 0.125, exec: 30, warmStart: math.NaN(), warm: n},
		{name: "negative exec on a warm instance", boot: 0.125, exec: -2, warmStart: 0.05, warm: n},
	} {
		cfg := AWSLambda()
		cfg.BootSec, cfg.WarmStartSec = tc.boot, tc.warmStart
		forced := cfg
		forced.ConcurrencyLimit = n
		elided, evented := panicOf(cfg, tc.warm, tc.exec), panicOf(forced, tc.warm, tc.exec)
		if elided == nil || evented == nil {
			t.Errorf("%s: elided path panicked with %v, evented with %v — both must panic", tc.name, elided, evented)
		} else if elided != evented {
			t.Errorf("%s: elided path panicked with %q, evented with %q", tc.name, elided, evented)
		}
	}
}

// TestEventsPerInstance pins the run's event budget (DESIGN §16). A dice-free
// burst schedules no event at all — its stations are solved by their
// recurrence — while any dice, hedging or an account throttle keeps every
// event the frozen closure control plane schedules. A handler that comes to
// need an event cannot silently lose it, and a regression cannot silently
// bring the events back.
//
// It pins where the events of an evented run queue as well. Station
// completions are monotone per station, so every one rides its station's lane
// and only the rest — staggered admits, boot and execution timers, backoffs —
// is pushed onto the general queue. The closure oracle has no lanes; every
// event it schedules is a queue push.
func TestEventsPerInstance(t *testing.T) {
	const n = 500
	events := func(cp controlPlaneFunc, cfg Config, b Burst) (scheduled, queued uint64, res *Result) {
		t.Helper()
		scheduled, queued = withEventCounts(cp, func() {
			var err error
			if res, err = Run(cfg, b); err != nil {
				t.Fatal(err)
			}
		})
		return scheduled, queued, res
	}
	cold := Burst{Demand: testDemand(), Functions: n, Degree: 1, Seed: 3}
	allWarm, staggered := cold, cold
	allWarm.Warm = n
	staggered.StaggerSec = 0.002

	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		burst  Burst
		// typed and closure are the expected events per burst, queued the
		// typed events expected on the general queue. solved means none of
		// either; otherwise typed 0 means a faulty run: both are whatever the
		// closure oracle implies.
		solved                 bool
		typed, queued, closure uint64
	}{
		{name: "dice-free cold", burst: cold, solved: true, closure: 5 * n},
		{name: "dice-free all-warm", burst: allWarm, solved: true, closure: 3 * n},
		{name: "dice-free staggered", burst: staggered, solved: true, closure: 6 * n},
		// Pods of 4: the leader builds and ships, three followers only schedule.
		{name: "dice-free pods", mutate: func(c *Config) { c.PodSize = 4 }, burst: cold, solved: true, closure: n/4*5 + 3*n/4*3},
		{name: "unthrottling limit", mutate: func(c *Config) { c.ConcurrencyLimit = n }, burst: cold, typed: 5 * n, queued: 2 * n, closure: 5 * n},
		{name: "unthrottling limit, staggered", mutate: func(c *Config) { c.ConcurrencyLimit = n }, burst: staggered, typed: 6 * n, queued: 3 * n, closure: 6 * n},
		{name: "throttled", mutate: func(c *Config) { c.ConcurrencyLimit = 50 }, burst: cold, typed: 5 * n, queued: 2 * n, closure: 5 * n},
		{name: "idle timeout", mutate: func(c *Config) { c.ExecTimeoutSec = 800 }, burst: cold, typed: 5 * n, queued: 2 * n, closure: 5 * n},
		{name: "hedged", mutate: func(c *Config) { c.Hedge.Quantile = 90 }, burst: cold, typed: 5 * n, queued: 2 * n, closure: 5 * n},
		{name: "stragglers", mutate: func(c *Config) { c.StragglerProb, c.StragglerFactor = 0.1, 2 }, burst: cold, typed: 5 * n, queued: 2 * n, closure: 5 * n},
		{name: "start failures", mutate: func(c *Config) { c.StartFailureProb, c.RetryDelaySec = 0.05, 0.5 }, burst: cold},
		{name: "crashes", mutate: func(c *Config) { c.CrashRate, c.RetryDelaySec = 0.0005, 0.5 }, burst: cold},
	} {
		cfg := AWSLambda()
		if tc.mutate != nil {
			tc.mutate(&cfg)
		}
		typed, queued, _ := events(runControlPlane, cfg, tc.burst)
		closure, closureQueued, oracle := events(runControlPlaneClosure, cfg, tc.burst)
		t.Logf("%-20s typed %.2f events/instance (%d on the general queue), closure oracle %.2f",
			tc.name, float64(typed)/n, queued, float64(closure)/n)
		if tc.closure != 0 && closure != tc.closure {
			t.Errorf("%s: closure oracle scheduled %d events, want %d", tc.name, closure, tc.closure)
		}
		if closureQueued != closure {
			t.Errorf("%s: closure oracle pushed %d of its %d events onto the queue, want all", tc.name, closureQueued, closure)
		}
		wantTyped, wantQueued := tc.typed, tc.queued
		if wantTyped == 0 && !tc.solved {
			wantTyped = closure
			if closure <= 5*n {
				t.Errorf("%s: closure oracle scheduled %d events — no retry ever happened, the case proves nothing", tc.name, closure)
			}
			// Every instance is placed, built and shipped once, and placed
			// once more per retried attempt (its pod has shipped by then);
			// all else the oracle scheduled is a timer.
			stationJobs := uint64(3*n + oracle.StartRetries + oracle.Crashes + oracle.Timeouts)
			wantQueued = closure - stationJobs
		}
		if typed != wantTyped {
			t.Errorf("%s: typed control plane scheduled %d events, want %d", tc.name, typed, wantTyped)
		}
		if queued != wantQueued {
			t.Errorf("%s: typed control plane pushed %d events onto the general queue, want %d", tc.name, queued, wantQueued)
		}
	}
}
