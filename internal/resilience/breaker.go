package resilience

import (
	"fmt"
	"sync"
	"time"
)

// Circuit breaker for a shared dependency. No production code calls it: the
// serve daemon's planner is an in-process function with nothing downstream
// to protect, so the daemon dropped its breaker. The type stays only while
// the benchmark's resilience.breaker_allow_record_ns row times Allow and
// Record; once that row goes (ROADMAP item 2), this file goes with it.
//
// Unlike the rest of this package the breaker is stateful — a server-side
// guard, not a simulation policy — but it stays deterministic the same way:
// every method takes the current time explicitly, so tests drive transitions
// with a fake clock and never sleep.
//
// States follow the classic three-state machine:
//
//	Closed    → requests flow; outcomes feed a rolling bucketed window.
//	            Trip to Open when the window has at least MinSamples and
//	            the error rate ≥ TripErrorRate or the slow-call rate
//	            (latency > SlowCallSec) ≥ TripSlowRate.
//	Open      → requests are rejected until CoolDown elapses, then the
//	            next Allow moves to HalfOpen.
//	HalfOpen  → at most HalfOpenMax probe requests may be in flight; one
//	            failed or slow probe re-opens, CloseAfter consecutive good
//	            probes close the breaker and reset the window.

// BreakerState is the circuit breaker's current mode.
type BreakerState int32

const (
	// BreakerClosed lets requests through and watches outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects requests until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe requests.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// BreakerConfig tunes the trip and recovery thresholds. The zero value is
// not usable; call Normalize (or use DefaultBreakerConfig) to fill gaps.
type BreakerConfig struct {
	// Window is the rolling observation span; outcomes older than it no
	// longer count toward trip decisions. Zero means 10 s.
	Window time.Duration
	// Buckets subdivides the window for cheap expiry. Zero means 10.
	Buckets int
	// MinSamples is the fewest windowed outcomes before the breaker may
	// trip — one early error must not open an idle breaker. Zero means 20.
	MinSamples int
	// TripErrorRate opens the breaker when windowed failures reach this
	// fraction (0 disables the error-rate trip).
	TripErrorRate float64
	// SlowCallSec classifies calls slower than this as slow (0 disables
	// the latency trip).
	SlowCallSec float64
	// TripSlowRate opens the breaker when windowed slow calls reach this
	// fraction (0 with SlowCallSec set means 1.0 — only all-slow trips).
	TripSlowRate float64
	// CoolDown is how long an open breaker rejects before probing. Zero
	// means 5 s.
	CoolDown time.Duration
	// HalfOpenMax bounds concurrent half-open probes. Zero means 1.
	HalfOpenMax int
	// CloseAfter is how many consecutive good probes close the breaker.
	// Zero means 3.
	CloseAfter int
}

// DefaultBreakerConfig trips on a half-failing window and probes again
// after five seconds.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		Window:        10 * time.Second,
		Buckets:       10,
		MinSamples:    20,
		TripErrorRate: 0.5,
		SlowCallSec:   0, // latency trip off unless the caller sets a budget
		TripSlowRate:  0.5,
		CoolDown:      5 * time.Second,
		HalfOpenMax:   1,
		CloseAfter:    3,
	}
}

// Normalize fills zero fields with their documented defaults and validates
// the rest.
func (c BreakerConfig) Normalize() (BreakerConfig, error) {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 10
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.TripSlowRate == 0 && c.SlowCallSec > 0 {
		c.TripSlowRate = 1.0
	}
	if c.CoolDown <= 0 {
		c.CoolDown = 5 * time.Second
	}
	if c.HalfOpenMax <= 0 {
		c.HalfOpenMax = 1
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = 3
	}
	switch {
	case c.TripErrorRate < 0 || c.TripErrorRate > 1:
		return c, fmt.Errorf("resilience: breaker error-rate threshold %g outside [0,1]", c.TripErrorRate)
	case c.TripSlowRate < 0 || c.TripSlowRate > 1:
		return c, fmt.Errorf("resilience: breaker slow-rate threshold %g outside [0,1]", c.TripSlowRate)
	case c.SlowCallSec < 0:
		return c, fmt.Errorf("resilience: negative breaker latency budget %g", c.SlowCallSec)
	}
	return c, nil
}

// breakerBucket is one window slice's outcome counts.
type breakerBucket struct {
	start time.Time
	total int
	errs  int
	slow  int
}

// Breaker is the three-state circuit breaker. All methods are safe for
// concurrent use. The caller flow is:
//
//	if !b.Allow(now) { reject }
//	... do the guarded call ...
//	b.Record(now, durSec, failed)
//
// Allow in half-open reserves a probe slot that Record releases, so a
// rejected Allow must NOT be paired with a Record.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state    BreakerState
	buckets  []breakerBucket // ring, rotated by time
	openedAt time.Time

	halfOpenInFlight int
	halfOpenGood     int
}

// NewBreaker builds a breaker; see BreakerConfig.Normalize for defaults.
func NewBreaker(cfg BreakerConfig) (*Breaker, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &Breaker{cfg: cfg, buckets: make([]breakerBucket, cfg.Buckets)}, nil
}

// bucketFor returns the ring bucket covering now, clearing slices that have
// rotated out of the window.
func (b *Breaker) bucketFor(now time.Time) *breakerBucket {
	span := b.cfg.Window / time.Duration(len(b.buckets))
	start := now.Truncate(span)
	i := int((start.UnixNano() / int64(span)) % int64(len(b.buckets)))
	if i < 0 {
		i += len(b.buckets)
	}
	bk := &b.buckets[i]
	if !bk.start.Equal(start) {
		*bk = breakerBucket{start: start}
	}
	return bk
}

// windowCounts sums buckets still inside the window ending at now.
func (b *Breaker) windowCounts(now time.Time) (total, errs, slow int) {
	for i := range b.buckets {
		bk := &b.buckets[i]
		if bk.total == 0 || now.Sub(bk.start) >= b.cfg.Window {
			continue
		}
		total += bk.total
		errs += bk.errs
		slow += bk.slow
	}
	return total, errs, slow
}

// Allow reports whether a request may proceed at time now. In half-open it
// reserves one of the probe slots; the matching Record releases it.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cfg.CoolDown {
			return false
		}
		b.state = BreakerHalfOpen
		b.halfOpenInFlight = 0
		b.halfOpenGood = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.halfOpenInFlight >= b.cfg.HalfOpenMax {
			return false
		}
		b.halfOpenInFlight++
		return true
	}
}

// Record feeds one guarded call's outcome back. failed marks hard errors;
// calls slower than SlowCallSec count as slow even when they succeeded.
func (b *Breaker) Record(now time.Time, durSec float64, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	slow := b.cfg.SlowCallSec > 0 && durSec > b.cfg.SlowCallSec
	switch b.state {
	case BreakerHalfOpen:
		if b.halfOpenInFlight > 0 {
			b.halfOpenInFlight--
		}
		if failed || slow {
			b.trip(now)
			return
		}
		b.halfOpenGood++
		if b.halfOpenGood >= b.cfg.CloseAfter {
			b.state = BreakerClosed
			for i := range b.buckets {
				b.buckets[i] = breakerBucket{}
			}
		}
	case BreakerClosed:
		bk := b.bucketFor(now)
		bk.total++
		if failed {
			bk.errs++
		}
		if slow {
			bk.slow++
		}
		total, errs, slowN := b.windowCounts(now)
		if total < b.cfg.MinSamples {
			return
		}
		if b.cfg.TripErrorRate > 0 && float64(errs)/float64(total) >= b.cfg.TripErrorRate {
			b.trip(now)
			return
		}
		if b.cfg.SlowCallSec > 0 && float64(slowN)/float64(total) >= b.cfg.TripSlowRate {
			b.trip(now)
		}
	case BreakerOpen:
		// A straggler finishing after the trip: its outcome is stale.
	}
}

// trip moves to Open (callers hold b.mu).
func (b *Breaker) trip(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.halfOpenInFlight = 0
	b.halfOpenGood = 0
}
