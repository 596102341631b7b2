package platform

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// withClosureControlPlane runs fn with every burst simulated by the frozen
// closure-based control plane (burst_closure_test.go) instead of the typed
// dispatcher — the specification side of the typed-equivalence proof. The
// oracle reads execution times from its first line and never runs the
// solver, so it starts by aborting and joining a follower Run may have
// started beside it.
func withClosureControlPlane(fn func()) {
	runCP = func(cfg Config, b Burst, sc *runScratch, rng *sim.RNG) (*Result, error) {
		sc.join()
		return runControlPlaneClosure(cfg, b, sc, rng)
	}
	defer func() { runCP = runControlPlane }()
	fn()
}

// runTypedAndClosure simulates the same burst through the typed dispatcher
// and the closure oracle and returns both results plus their JSONL trace
// bytes.
func runTypedAndClosure(t *testing.T, cfg Config, b Burst) (typed, closure *Result, typedTrace, closureTrace []byte) {
	t.Helper()
	var tbuf, cbuf bytes.Buffer
	tb := b
	tb.Recorder = obs.NewJSONL(&tbuf)
	typed, typedErr := Run(cfg, tb)
	cb := b
	cb.Recorder = obs.NewJSONL(&cbuf)
	var closureErr error
	withClosureControlPlane(func() {
		closure, closureErr = Run(cfg, cb)
	})
	// Retry exhaustion under fault injection is a legitimate outcome; both
	// control planes must reach the identical verdict (same instance, same
	// attempt count) or the equivalence is broken.
	if (typedErr == nil) != (closureErr == nil) {
		t.Fatalf("typed err = %v, closure err = %v", typedErr, closureErr)
	}
	if typedErr != nil {
		if typedErr.Error() != closureErr.Error() {
			t.Fatalf("typed err %q differs from closure err %q", typedErr, closureErr)
		}
		return nil, nil, tbuf.Bytes(), cbuf.Bytes()
	}
	return typed, closure, tbuf.Bytes(), cbuf.Bytes()
}

// TestBurstTypedVsClosureDifferential is the control-plane half of the
// closure-free rewrite's proof: at randomized (C, degree, fault-rate, seed)
// points the typed dispatcher must reproduce the frozen closure
// implementation bit-for-bit — timelines, billing, fault counters, and the
// JSONL event trace. The oracle's closure station schedules every completion
// on the engine's heap, where the typed stations ride monotone lanes, so each
// faulty, hedged and throttled trial also holds lanes ≡ no lanes.
func TestBurstTypedVsClosureDifferential(t *testing.T) {
	d := workload.Video{}.Demand()
	rng := rand.New(rand.NewSource(271828))
	// Every trial here is a pod of one (PodSize 0): a retried attempt knows
	// its image shipped because it is a retry, where the oracle asks its
	// podState. The sweep must actually retry, both ways.
	var startRetries, execRetries int
	defer func() {
		if startRetries == 0 || execRetries == 0 {
			t.Errorf("sweep saw %d start retries and %d crash/timeout retries: the re-entry path went unexercised", startRetries, execRetries)
		}
	}()
	for trial := 0; trial < 40; trial++ {
		cfg := AWSLambda()
		c := 1 + rng.Intn(800)
		deg := 1 + rng.Intn(16)
		if rng.Intn(2) == 0 {
			cfg.CrashRate = rng.Float64() * 0.002
			cfg.StartFailureProb = rng.Float64() * 0.1
			cfg.RetryDelaySec = 0.5
			cfg.StragglerProb = rng.Float64() * 0.1
			cfg.StragglerFactor = 2
		}
		if rng.Intn(3) == 0 {
			cfg.Hedge.Quantile = 90
		}
		if rng.Intn(4) == 0 {
			cfg.ConcurrencyLimit = 1 + rng.Intn(100)
		}
		if rng.Intn(3) == 0 {
			cfg.ExecTimeoutSec = 30 + rng.Float64()*60
		}
		b := Burst{
			Demand:    d,
			Functions: c,
			Degree:    deg,
			Warm:      rng.Intn(5),
			Seed:      rng.Int63(),
		}
		if rng.Intn(4) == 0 {
			b.StaggerSec = rng.Float64() * 0.01
		}
		what := fmt.Sprintf("trial %d (C=%d P=%d crash=%g seed=%d): typed vs closure oracle", trial, c, deg, cfg.CrashRate, b.Seed)
		typed, closure, typedTrace, closureTrace := runTypedAndClosure(t, cfg, b)
		if typed != nil {
			startRetries += typed.StartRetries
			execRetries += typed.Crashes + typed.Timeouts
			sameResultBits(t, what, typed, closure)
		}
		if !bytes.Equal(typedTrace, closureTrace) {
			t.Fatalf("%s: JSONL traces differ", what)
		}
	}
}

// TestMixedBurstTypedVsClosureDifferential extends the typed-equivalence
// proof to heterogeneous bursts, whose bin structure exercises pods, warm
// prefixes, and per-bin interference together.
func TestMixedBurstTypedVsClosureDifferential(t *testing.T) {
	cfg := AWSLambda()
	cfg.CrashRate = 0.0004
	cfg.StragglerProb = 0.04
	cfg.StragglerFactor = 2.5
	cfg.Hedge.Quantile = 95
	m := MixedBurst{Bins: mixedEquivBins(), Warm: 6, Seed: 314}
	run := func(rec obs.Recorder) (*Result, error) {
		m.Recorder = rec
		return RunMixed(cfg, m)
	}
	typed, typedTrace, _ := tracedRun(t, "mixed burst", run)
	var closure *Result
	var closureTrace []byte
	withClosureControlPlane(func() { closure, closureTrace, _ = tracedRun(t, "mixed burst (closure)", run) })
	sameRun(t, "mixed burst: typed vs closure oracle", typed, typedTrace, closure, closureTrace)
}
