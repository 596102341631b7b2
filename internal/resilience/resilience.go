// Package resilience holds the pure, deterministic fault-tolerance policies
// shared by the datacenter simulator and the local FaaS runtime: retry
// backoff schedules (fixed, exponential, decorrelated jitter) with attempt
// and wall-clock budgets, and a quantile-based hedging policy (speculative
// duplicate launch for stragglers, first-finisher-wins).
//
// Nothing here keeps state or consumes randomness on its own: callers pass
// the retry number, the previous delay, and a uniform sampler, so the same
// inputs always produce the same schedule. This is what lets the simulator
// stay bit-for-bit reproducible and the policies be unit-tested in
// isolation.
package resilience

import (
	"fmt"

	"repro/internal/stats"
)

// Kind selects a backoff schedule.
type Kind int

const (
	// Fixed waits BaseSec before every retry — the behaviour of the
	// original cold-start failure injection.
	Fixed Kind = iota
	// Exponential waits BaseSec·Factor^(retry−1), capped at CapSec.
	Exponential
	// Decorrelated is the AWS Architecture Blog "decorrelated jitter"
	// schedule: each delay is uniform in [BaseSec, 3·previous], capped at
	// CapSec. It needs the caller's uniform sampler.
	Decorrelated
)

func (k Kind) String() string {
	switch k {
	case Fixed:
		return "fixed"
	case Exponential:
		return "exponential"
	case Decorrelated:
		return "decorrelated"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses a schedule name ("fixed", "exponential", "decorrelated").
func KindByName(name string) (Kind, error) {
	switch name {
	case "fixed":
		return Fixed, nil
	case "exponential", "exp":
		return Exponential, nil
	case "decorrelated", "jitter":
		return Decorrelated, nil
	default:
		return 0, fmt.Errorf("resilience: unknown backoff kind %q", name)
	}
}

// Backoff is a retry policy: how long to wait before each retry and when to
// give up. The zero value is a usable "fixed, zero delay" policy whose
// budgets fall back to the caller's defaults (see Allow).
type Backoff struct {
	// Kind selects the schedule.
	Kind Kind
	// BaseSec is the first delay (and every delay, for Fixed).
	BaseSec float64
	// CapSec bounds every delay; 0 means uncapped.
	CapSec float64
	// Factor is the exponential growth rate; 0 means 2.
	Factor float64
	// MaxAttempts is the retry budget (retries beyond the first attempt);
	// 0 means the caller's default.
	MaxAttempts int
	// MaxElapsedSec stops retrying once the total elapsed time since the
	// first attempt exceeds it; 0 means unlimited.
	MaxElapsedSec float64
}

// Validate reports an error for malformed policies.
func (b Backoff) Validate() error {
	switch {
	case b.Kind < Fixed || b.Kind > Decorrelated:
		return fmt.Errorf("resilience: unknown backoff kind %d", int(b.Kind))
	case !stats.FiniteNonNeg(b.BaseSec, b.CapSec, b.Factor):
		return fmt.Errorf("resilience: negative or non-finite backoff parameter %+v", b)
	case b.MaxAttempts < 0 || !stats.FiniteNonNeg(b.MaxElapsedSec):
		return fmt.Errorf("resilience: negative or non-finite backoff budget %+v", b)
	}
	return nil
}

// IsZero reports whether the policy is entirely unset, letting callers
// substitute their legacy defaults.
func (b Backoff) IsZero() bool { return b == Backoff{} }

// String renders the policy compactly for logs: kind, base/cap, growth
// factor, and budgets. The zero policy reads "none".
func (b Backoff) String() string {
	if b.IsZero() {
		return "none"
	}
	s := fmt.Sprintf("%s base=%gs", b.Kind, b.BaseSec)
	if b.CapSec > 0 {
		s += fmt.Sprintf(" cap=%gs", b.CapSec)
	}
	if b.Kind == Exponential && b.Factor != 0 {
		s += fmt.Sprintf(" factor=%g", b.Factor)
	}
	if b.MaxAttempts > 0 {
		s += fmt.Sprintf(" attempts=%d", b.MaxAttempts)
	}
	if b.MaxElapsedSec > 0 {
		s += fmt.Sprintf(" elapsed=%gs", b.MaxElapsedSec)
	}
	return s
}

// Delay returns the wait before retry number `retry` (1-based). prevSec is
// the previous delay (used by Decorrelated; pass 0 on the first retry) and
// uniform samples [0,1) — it is only consulted by Decorrelated, so Fixed and
// Exponential schedules consume no randomness.
func (b Backoff) Delay(retry int, prevSec float64, uniform func() float64) float64 {
	if retry < 1 {
		retry = 1
	}
	var d float64
	switch b.Kind {
	case Exponential:
		factor := b.Factor
		if factor == 0 {
			factor = 2
		}
		d = b.BaseSec
		for i := 1; i < retry; i++ {
			d *= factor
			if b.CapSec > 0 && d >= b.CapSec {
				d = b.CapSec
				break
			}
		}
	case Decorrelated:
		if prevSec < b.BaseSec {
			prevSec = b.BaseSec
		}
		d = b.BaseSec + uniform()*(3*prevSec-b.BaseSec)
	default: // Fixed
		d = b.BaseSec
	}
	if b.CapSec > 0 && d > b.CapSec {
		d = b.CapSec
	}
	return d
}

// Allow reports whether retry number `retry` (1-based) may proceed given the
// time elapsed since the first attempt. defaultMaxAttempts substitutes for
// an unset MaxAttempts budget; if neither supplies a positive budget, no
// retries are allowed — budgets are always explicit and bounded.
func (b Backoff) Allow(retry int, elapsedSec float64, defaultMaxAttempts int) bool {
	max := b.MaxAttempts
	if max == 0 {
		max = defaultMaxAttempts
	}
	if retry > max {
		return false
	}
	if b.MaxElapsedSec > 0 && elapsedSec > b.MaxElapsedSec {
		return false
	}
	return true
}

// Hedge is a straggler-mitigation policy: once a request has been running
// longer than the Quantile-th percentile of its fleet's execution durations
// (but at least MinDelaySec), launch one speculative duplicate and let the
// first finisher win. The zero value disables hedging.
type Hedge struct {
	// Quantile in (0, 100) sets the launch threshold; 0 disables hedging.
	Quantile float64
	// MinDelaySec floors the threshold so cheap requests are never hedged.
	MinDelaySec float64
}

// Enabled reports whether the policy hedges at all.
func (h Hedge) Enabled() bool { return h.Quantile > 0 }

// String renders the policy compactly for logs; a disabled policy reads
// "off".
func (h Hedge) String() string {
	if !h.Enabled() {
		return "off"
	}
	s := fmt.Sprintf("p%g", h.Quantile)
	if h.MinDelaySec > 0 {
		s += fmt.Sprintf(" min=%gs", h.MinDelaySec)
	}
	return s
}

// Validate reports an error for malformed policies.
func (h Hedge) Validate() error {
	switch {
	case !(h.Quantile >= 0 && h.Quantile < 100): // NaN-proof: NaN would read as "off"
		return fmt.Errorf("resilience: hedge quantile %g outside [0, 100)", h.Quantile)
	case !stats.FiniteNonNeg(h.MinDelaySec):
		return fmt.Errorf("resilience: hedge delay %g negative or non-finite", h.MinDelaySec)
	}
	return nil
}

// Threshold returns the hedge launch delay for a fleet whose (expected or
// observed) execution durations are given: the Quantile-th percentile,
// floored at MinDelaySec. A disabled or empty-fleet policy returns +Inf-like
// behaviour via MinDelaySec only when durations exist; with no data it
// returns MinDelaySec so callers can still bound the wait.
func (h Hedge) Threshold(durations []float64) float64 {
	if !h.Enabled() || len(durations) == 0 {
		return h.MinDelaySec
	}
	t := stats.Quantile(durations, h.Quantile)
	if t < h.MinDelaySec {
		t = h.MinDelaySec
	}
	return t
}
