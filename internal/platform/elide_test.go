package platform

import (
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// The event-free path: a dice-free, unthrottled run schedules nothing, as it
// is solved as three queues in tandem (tandem.go, DESIGN §16). Here are its
// event budget and panics; FuzzStoreSequence holds its bits to the engine's.

// controlPlaneFunc is the signature behind the runCP hook.
type controlPlaneFunc = func(Config, Burst, *runScratch, *sim.RNG) (*Result, error)

// withEventCounts runs fn with cp installed as the control plane and returns
// the number of events the engine scheduled across every burst fn simulated
// (RunSharded simulates its cells concurrently, hence the atomic).
func withEventCounts(cp controlPlaneFunc, fn func()) uint64 {
	var total atomic.Uint64
	runCP = func(cfg Config, b Burst, sc *runScratch, rng *sim.RNG) (*Result, error) {
		res, err := cp(cfg, b, sc, rng)
		total.Add(engineScheduled(sc.eng))
		return res, err
	}
	defer func() { runCP = runControlPlane }()
	fn()
	return total.Load()
}

// engineScheduled reads the engine's own counter, as registerWords reads the
// generator's register: seq numbers every event scheduled since the last
// Reset. Production never asks for it.
func engineScheduled(eng *sim.Engine) uint64 {
	return reflect.ValueOf(eng).Elem().FieldByName("seq").Uint()
}

// sameResultBits requires two Results to agree on everything a run
// computes: all 13 columns (the milestones a stored schedule does not keep
// solved again), the folded summary, the four USD fields, the three
// busy-second fields and the fault roll-up, floats compared by bit pattern.
func sameResultBits(t *testing.T, what string, got, want *Result) {
	t.Helper()
	g, w := got.resolved(), want.resolved()
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
func TestEventsPerInstance(t *testing.T) {
	const n = 500
	events := func(cp controlPlaneFunc, cfg Config, b Burst) uint64 {
		t.Helper()
		return withEventCounts(cp, func() {
			if _, err := Run(cfg, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	cold := Burst{Demand: testDemand(), Functions: n, Degree: 1, Seed: 3}
	allWarm, staggered := cold, cold
	allWarm.Warm = n
	staggered.StaggerSec = 0.002

	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		burst  Burst
		// typed and closure are the expected events per burst. solved means
		// none of the typed ones; otherwise typed 0 means a faulty run: it is
		// whatever the closure oracle implies.
		solved         bool
		typed, closure uint64
	}{
		{name: "dice-free cold", burst: cold, solved: true, closure: 5 * n},
		{name: "dice-free all-warm", burst: allWarm, solved: true, closure: 3 * n},
		{name: "dice-free staggered", burst: staggered, solved: true, closure: 6 * n},
		// Pods of 4: the leader builds and ships, three followers only schedule.
		{name: "dice-free pods", mutate: func(c *Config) { c.PodSize = 4 }, burst: cold, solved: true, closure: n/4*5 + 3*n/4*3},
		{name: "unthrottling limit", mutate: func(c *Config) { c.ConcurrencyLimit = n }, burst: cold, typed: 5 * n, closure: 5 * n},
		{name: "unthrottling limit, staggered", mutate: func(c *Config) { c.ConcurrencyLimit = n }, burst: staggered, typed: 6 * n, closure: 6 * n},
		{name: "throttled", mutate: func(c *Config) { c.ConcurrencyLimit = 50 }, burst: cold, typed: 5 * n, closure: 5 * n},
		{name: "idle timeout", mutate: func(c *Config) { c.ExecTimeoutSec = 800 }, burst: cold, typed: 5 * n, closure: 5 * n},
		{name: "hedged", mutate: func(c *Config) { c.Hedge.Quantile = 90 }, burst: cold, typed: 5 * n, closure: 5 * n},
		{name: "stragglers", mutate: func(c *Config) { c.StragglerProb, c.StragglerFactor = 0.1, 2 }, burst: cold, typed: 5 * n, closure: 5 * n},
		{name: "start failures", mutate: func(c *Config) { c.StartFailureProb, c.Retry.BaseSec = 0.05, 0.5 }, burst: cold},
		{name: "crashes", mutate: func(c *Config) { c.CrashRate, c.Retry.BaseSec = 0.0005, 0.5 }, burst: cold},
	} {
		cfg := AWSLambda()
		if tc.mutate != nil {
			tc.mutate(&cfg)
		}
		typed := events(runControlPlane, cfg, tc.burst)
		closure := events(runControlPlaneClosure, cfg, tc.burst)
		t.Logf("%-20s typed %.2f events/instance, closure oracle %.2f",
			tc.name, float64(typed)/n, float64(closure)/n)
		if tc.closure != 0 && closure != tc.closure {
			t.Errorf("%s: closure oracle scheduled %d events, want %d", tc.name, closure, tc.closure)
		}
		wantTyped := tc.typed
		if wantTyped == 0 && !tc.solved {
			wantTyped = closure
			if closure <= 5*n {
				t.Errorf("%s: closure oracle scheduled %d events — no retry ever happened, the case proves nothing", tc.name, closure)
			}
		}
		if typed != wantTyped {
			t.Errorf("%s: typed control plane scheduled %d events, want %d", tc.name, typed, wantTyped)
		}
	}
}
