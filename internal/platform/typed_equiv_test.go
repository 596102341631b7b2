package platform

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/interfere"
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
// JSONL event trace. The oracle's sim.Station schedules every completion on
// the engine's heap, where the typed stations ride monotone lanes, so each
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
		typed, closure, typedTrace, closureTrace := runTypedAndClosure(t, cfg, b)
		if typed != nil {
			normalize(typed)
			normalize(closure)
			startRetries += typed.StartRetries
			execRetries += typed.Crashes + typed.Timeouts
		}
		if !reflect.DeepEqual(typed, closure) {
			t.Fatalf("trial %d (C=%d P=%d crash=%g seed=%d): typed result differs from closure oracle",
				trial, c, deg, cfg.CrashRate, b.Seed)
		}
		if !bytes.Equal(typedTrace, closureTrace) {
			t.Fatalf("trial %d (C=%d P=%d): JSONL traces differ between typed and closure control planes",
				trial, c, deg)
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
	light := interfere.Demand{CPUSeconds: 5, MemoryMB: 128, InputMB: 5, OutputMB: 1}
	heavy := workload.Video{}.Demand()
	var bins []Bin
	for i := 0; i < 80; i++ {
		var bn Bin
		bn.Demands = append(bn.Demands, light)
		if i%2 == 0 {
			bn.Demands = append(bn.Demands, heavy)
		}
		if i%5 == 0 {
			bn.Demands = append(bn.Demands, light, light, light)
		}
		bins = append(bins, bn)
	}
	m := MixedBurst{Bins: bins, Warm: 6, Seed: 314}

	var tbuf, cbuf bytes.Buffer
	tm := m
	tm.Recorder = obs.NewJSONL(&tbuf)
	typed, err := RunMixed(cfg, tm)
	if err != nil {
		t.Fatal(err)
	}
	cm := m
	cm.Recorder = obs.NewJSONL(&cbuf)
	var closure *Result
	withClosureControlPlane(func() {
		closure, err = RunMixed(cfg, cm)
	})
	if err != nil {
		t.Fatal(err)
	}
	normalize(typed)
	normalize(closure)
	if !reflect.DeepEqual(typed, closure) {
		t.Fatal("mixed burst: typed result differs from closure oracle")
	}
	if !bytes.Equal(tbuf.Bytes(), cbuf.Bytes()) {
		t.Fatal("mixed burst: JSONL traces differ between typed and closure control planes")
	}
}

// TestConcurrentTypedDispatchSharded puts the typed dispatcher under the
// race detector's eye: concurrent sharded runs (each worker goroutine owns
// a pooled engine + dispatcher from runScratchPool) must stay
// byte-identical to the sequential single-shard result. The Concurrent name
// opts it into CI's -race -count=2 stress matrix.
func TestConcurrentTypedDispatchSharded(t *testing.T) {
	cfg := AWSLambda()
	cfg.CrashRate = 0.0005
	cfg.StragglerProb = 0.05
	cfg.StragglerFactor = 2
	cfg.Hedge.Quantile = 95
	b := Burst{
		Demand:    workload.Video{}.Demand(),
		Functions: 4000,
		Degree:    4,
		Warm:      16,
		Seed:      99,
	}
	base, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	normalize(base)
	for _, workers := range []int{2, 4, 8} {
		got, err := RunSharded(cfg, b, Sharding{Shards: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		normalize(got)
		// Sharded runs split the burst into independent cells, so only the
		// invariant aggregates are comparable to the unsharded run; the
		// load-bearing check is that every worker count agrees with the
		// workers=1 sharded result bit-for-bit.
		ref, err := RunSharded(cfg, b, Sharding{Shards: 8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		normalize(ref)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: sharded typed-dispatch result differs from workers=1", workers)
		}
	}
	if len(base.Timelines()) != b.Instances() {
		t.Fatalf("unsharded run lost instances: %d != %d", len(base.Timelines()), b.Instances())
	}
}
