package resilience

import (
	"math"
	"math/rand"
	"testing"
)

func noRand() float64 { panic("policy consumed randomness it should not need") }

func TestFixedBackoff(t *testing.T) {
	b := Backoff{Kind: Fixed, BaseSec: 5}
	for retry := 1; retry <= 4; retry++ {
		if d := b.Delay(retry, 0, noRand); d != 5 {
			t.Fatalf("fixed delay(%d) = %g, want 5", retry, d)
		}
	}
}

func TestExponentialBackoffGrowsAndCaps(t *testing.T) {
	b := Backoff{Kind: Exponential, BaseSec: 1, CapSec: 10}
	want := []float64{1, 2, 4, 8, 10, 10}
	for i, w := range want {
		if d := b.Delay(i+1, 0, noRand); d != w {
			t.Fatalf("exp delay(%d) = %g, want %g", i+1, d, w)
		}
	}
	// Custom growth factor.
	b3 := Backoff{Kind: Exponential, BaseSec: 2, Factor: 3}
	if d := b3.Delay(3, 0, noRand); d != 18 {
		t.Fatalf("factor-3 delay(3) = %g, want 18", d)
	}
}

func TestDecorrelatedJitterBounds(t *testing.T) {
	b := Backoff{Kind: Decorrelated, BaseSec: 1, CapSec: 30}
	rng := rand.New(rand.NewSource(7))
	prev := 0.0
	for i := 1; i <= 200; i++ {
		d := b.Delay(i, prev, rng.Float64)
		lo, hi := b.BaseSec, 3*prev
		if prev < b.BaseSec {
			hi = 3 * b.BaseSec
		}
		if hi > b.CapSec {
			hi = b.CapSec
		}
		if d < lo || d > hi {
			t.Fatalf("decorrelated delay %g outside [%g, %g] at retry %d (prev %g)", d, lo, hi, i, prev)
		}
		prev = d
	}
}

func TestDecorrelatedIsDeterministicGivenSampler(t *testing.T) {
	b := Backoff{Kind: Decorrelated, BaseSec: 2, CapSec: 60}
	seq := func() []float64 {
		rng := rand.New(rand.NewSource(42))
		var out []float64
		prev := 0.0
		for i := 1; i <= 20; i++ {
			prev = b.Delay(i, prev, rng.Float64)
			out = append(out, prev)
		}
		return out
	}
	a, c := seq(), seq()
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("decorrelated schedule not reproducible from the same sampler")
		}
	}
}

func TestBackoffBudgets(t *testing.T) {
	b := Backoff{MaxAttempts: 2}
	if !b.Allow(1, 0, 5) || !b.Allow(2, 0, 5) {
		t.Fatal("retries within budget rejected")
	}
	if b.Allow(3, 0, 5) {
		t.Fatal("retry beyond MaxAttempts allowed")
	}
	// Unset budget falls back to the caller default.
	z := Backoff{}
	if !z.Allow(3, 0, 3) || z.Allow(4, 0, 3) {
		t.Fatal("default attempt budget not applied")
	}
	// Elapsed-time budget.
	e := Backoff{MaxAttempts: 100, MaxElapsedSec: 60}
	if !e.Allow(5, 59, 3) || e.Allow(5, 61, 3) {
		t.Fatal("elapsed budget not applied")
	}
	// No budget anywhere means no retries at all.
	if (Backoff{}).Allow(1, 0, 0) {
		t.Fatal("retry allowed without any attempt budget")
	}
}

func TestBackoffValidate(t *testing.T) {
	good := []Backoff{{}, {Kind: Exponential, BaseSec: 1, CapSec: 10, MaxAttempts: 5}}
	for _, b := range good {
		if err := b.Validate(); err != nil {
			t.Fatalf("good policy rejected: %v", err)
		}
	}
	bad := []Backoff{
		{Kind: Kind(9)},
		{BaseSec: -1},
		{CapSec: -1},
		{Factor: -2},
		{MaxAttempts: -1},
		{MaxElapsedSec: -1},
	}
	// NaN fails every `x < 0` check, and a NaN or infinite delay reaches the
	// simulator's engine as a panic: each float field refuses all three.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad, Backoff{BaseSec: v}, Backoff{CapSec: v}, Backoff{Factor: v}, Backoff{MaxElapsedSec: v})
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Fatalf("bad policy %d accepted: %+v", i, b)
		}
	}
}

func TestBackoffIsZero(t *testing.T) {
	if !(Backoff{}).IsZero() {
		t.Fatal("zero value not recognized")
	}
	if (Backoff{BaseSec: 1}).IsZero() {
		t.Fatal("non-zero value treated as unset")
	}
}

func TestKindParsing(t *testing.T) {
	for _, name := range []string{"fixed", "exponential", "decorrelated"} {
		k, err := KindByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Fatalf("round trip %q → %q", name, k.String())
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestHedgeThreshold(t *testing.T) {
	durations := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := Hedge{Quantile: 90}
	if got := h.Threshold(durations); got != 90 {
		t.Fatalf("p90 threshold = %g, want 90", got)
	}
	// MinDelaySec floors the threshold.
	h = Hedge{Quantile: 10, MinDelaySec: 25}
	if got := h.Threshold(durations); got != 25 {
		t.Fatalf("floored threshold = %g, want 25", got)
	}
	// Disabled or empty data falls back to the floor.
	if (Hedge{}).Enabled() {
		t.Fatal("zero hedge should be disabled")
	}
	if got := (Hedge{MinDelaySec: 3}).Threshold(durations); got != 3 {
		t.Fatalf("disabled hedge threshold = %g, want 3", got)
	}
	if got := (Hedge{Quantile: 95, MinDelaySec: 7}).Threshold(nil); got != 7 {
		t.Fatalf("empty-fleet threshold = %g, want 7", got)
	}
}

func TestHedgeValidate(t *testing.T) {
	if (Hedge{Quantile: 95, MinDelaySec: 1}).Validate() != nil {
		t.Fatal("good hedge rejected")
	}
	bad := []Hedge{{Quantile: -1}, {Quantile: 100}, {Quantile: 50, MinDelaySec: -1}}
	// A NaN quantile used to validate clean and read as "hedging off".
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad, Hedge{Quantile: v}, Hedge{Quantile: 50, MinDelaySec: v})
	}
	for i, h := range bad {
		if h.Validate() == nil {
			t.Fatalf("bad hedge %d accepted: %+v", i, h)
		}
	}
}
