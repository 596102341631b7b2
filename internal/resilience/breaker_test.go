package resilience

import (
	"sync"
	"testing"
	"time"
)

// tick is the fake clock origin; breaker tests never sleep.
var t0 = time.Unix(1_700_000_000, 0)

func mustBreaker(t *testing.T, cfg BreakerConfig) *Breaker {
	t.Helper()
	b, err := NewBreaker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stateOf reads the breaker's mode under its lock.
func stateOf(b *Breaker) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerStep is one scripted operation against the breaker.
type breakerStep struct {
	at        time.Duration // offset from t0
	op        string        // "allow", "record", "state"
	durSec    float64       // for record
	failed    bool          // for record
	wantAllow bool          // for allow
	wantState BreakerState  // for state
}

// TestBreakerTransitions drives the full closed→open→half-open→closed and
// half-open→open machine through scripted timelines.
func TestBreakerTransitions(t *testing.T) {
	cfg := BreakerConfig{
		Window:        10 * time.Second,
		Buckets:       10,
		MinSamples:    4,
		TripErrorRate: 0.5,
		SlowCallSec:   1.0,
		TripSlowRate:  0.75,
		CoolDown:      5 * time.Second,
		HalfOpenMax:   1,
		CloseAfter:    2,
	}
	rec := func(at time.Duration, dur float64, failed bool) breakerStep {
		return breakerStep{at: at, op: "record", durSec: dur, failed: failed}
	}
	allow := func(at time.Duration, want bool) breakerStep {
		return breakerStep{at: at, op: "allow", wantAllow: want}
	}
	state := func(at time.Duration, want BreakerState) breakerStep {
		return breakerStep{at: at, op: "state", wantState: want}
	}
	cases := []struct {
		name  string
		steps []breakerStep
	}{
		{"stays closed under healthy traffic", []breakerStep{
			rec(0, 0.1, false), rec(1, 0.1, false), rec(2, 0.1, false),
			rec(3, 0.1, false), rec(4, 0.1, false),
			state(4, BreakerClosed), allow(4, true),
		}},
		{"needs MinSamples before tripping", []breakerStep{
			rec(0, 0.1, true), rec(1, 0.1, true), rec(2, 0.1, true),
			state(2, BreakerClosed), // 3 failures < MinSamples=4
			rec(3, 0.1, true),
			state(3, BreakerOpen), allow(3, false),
		}},
		{"error rate below threshold stays closed", []breakerStep{
			rec(0, 0.1, true), rec(0, 0.1, false), rec(1, 0.1, false),
			rec(1, 0.1, false), rec(2, 0.1, false), rec(2, 0.1, true),
			state(2, BreakerClosed), // 2/6 = 0.33 < 0.5
		}},
		{"slow calls trip the latency threshold", []breakerStep{
			rec(0, 2.0, false), rec(1, 2.0, false), rec(2, 2.0, false),
			state(2, BreakerClosed),
			rec(3, 2.0, false), // 4/4 slow ≥ 0.75
			state(3, BreakerOpen),
		}},
		{"open rejects until cool-down, then half-opens one probe", []breakerStep{
			rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true),
			state(0, BreakerOpen),
			allow(2*time.Second, false), // cool-down not elapsed
			allow(5*time.Second, true),  // → half-open probe slot
			state(5*time.Second, BreakerHalfOpen),
			allow(5*time.Second, false), // HalfOpenMax=1: second probe refused
		}},
		{"half-open probe failure re-opens", []breakerStep{
			rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true),
			allow(5*time.Second, true),
			rec(5*time.Second, 0.1, true),
			state(5*time.Second, BreakerOpen),
			allow(6*time.Second, false), // a fresh cool-down started at 5 s
		}},
		{"half-open slow probe re-opens", []breakerStep{
			rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true),
			allow(5*time.Second, true),
			rec(5*time.Second, 3.0, false), // succeeded but slow
			state(5*time.Second, BreakerOpen),
		}},
		{"CloseAfter good probes close and reset the window", []breakerStep{
			rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true),
			allow(5*time.Second, true),
			rec(5*time.Second, 0.1, false),
			state(5*time.Second, BreakerHalfOpen), // 1 good < CloseAfter=2
			allow(6*time.Second, true),
			rec(6*time.Second, 0.1, false),
			state(6*time.Second, BreakerClosed),
			// The old window's failures must not linger: three fresh
			// failures (< MinSamples) keep it closed.
			rec(7*time.Second, 0.1, true), rec(7*time.Second, 0.1, true),
			rec(7*time.Second, 0.1, true),
			state(7*time.Second, BreakerClosed),
		}},
		{"failures outside the window expire", []breakerStep{
			rec(0, 0.1, true), rec(0, 0.1, true), rec(0, 0.1, true),
			// 11 s later the window has rotated past them.
			rec(11*time.Second, 0.1, true),
			state(11*time.Second, BreakerClosed), // only 1 sample in window
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := mustBreaker(t, cfg)
			for i, s := range tc.steps {
				now := t0.Add(s.at)
				switch s.op {
				case "record":
					b.Record(now, s.durSec, s.failed)
				case "allow":
					if got := b.Allow(now); got != s.wantAllow {
						t.Fatalf("step %d: Allow(+%v) = %v, want %v (state %v)",
							i, s.at, got, s.wantAllow, stateOf(b))
					}
				case "state":
					if got := stateOf(b); got != s.wantState {
						t.Fatalf("step %d: state at +%v = %v, want %v", i, s.at, got, s.wantState)
					}
				}
			}
		})
	}
}

func TestBreakerConfigValidation(t *testing.T) {
	bad := []BreakerConfig{
		{TripErrorRate: 1.5},
		{TripErrorRate: -0.1},
		{SlowCallSec: -1},
		{SlowCallSec: 1, TripSlowRate: 2},
	}
	for _, cfg := range bad {
		if _, err := NewBreaker(cfg); err == nil {
			t.Errorf("NewBreaker(%+v) accepted an invalid config", cfg)
		}
	}
	b := mustBreaker(t, BreakerConfig{})
	if b.cfg.MinSamples != 20 || b.cfg.CloseAfter != 3 || b.cfg.HalfOpenMax != 1 {
		t.Fatalf("defaults not applied: %+v", b.cfg)
	}
}

// TestBreakerConcurrentHalfOpen hammers Allow/Record from many goroutines
// while the breaker cycles, for the -race job: the probe-slot accounting
// must never go negative or exceed HalfOpenMax.
func TestBreakerConcurrentHalfOpen(t *testing.T) {
	b := mustBreaker(t, BreakerConfig{
		MinSamples: 2, TripErrorRate: 0.5, CoolDown: time.Millisecond, HalfOpenMax: 2, CloseAfter: 2,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := t0
			for i := 0; i < 500; i++ {
				now = now.Add(time.Duration(g+1) * time.Millisecond)
				if b.Allow(now) {
					b.Record(now, 0.001, i%3 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
	b.mu.Lock()
	inFlight := b.halfOpenInFlight
	b.mu.Unlock()
	if inFlight < 0 || inFlight > 2 {
		t.Fatalf("half-open in-flight accounting broken: %d", inFlight)
	}
}
