package obs

import (
	"sync"
	"time"
)

// Windowed SLO tracking for a request-serving path. An SLO holds two
// objectives over a rolling horizon:
//
//   - availability: at least Availability of requests succeed (no 5xx);
//   - latency: at least LatencyTarget of successful requests finish within
//     LatencyThresholdSec.
//
// For each configured window it reports the observed error rate, the
// latency attainment, and the burn rate — how fast the error budget is
// being spent, where burn 1.0 means "exactly consuming the budget the
// objective allows" and burn N means the budget is gone in 1/N of the SLO
// period. The multi-window shape follows the SRE-workbook alerting recipe:
// a short and a long window must both burn hot before anyone is paged, so
// a single slow request cannot fire an alert and a slow leak still does.
//
// The tracker is a fixed ring of coarse time buckets: Record is O(1) under
// one short mutex hold, Status is O(buckets), and memory is independent of
// request rate.

// SLOObjectives states the service-level targets.
type SLOObjectives struct {
	// Availability is the target fraction of requests that must not fail
	// server-side, e.g. 0.999.
	Availability float64 `json:"availability"`
	// LatencyTarget is the target fraction of successful requests that must
	// finish within LatencyThresholdSec, e.g. 0.95.
	LatencyTarget float64 `json:"latency_target"`
	// LatencyThresholdSec is the latency objective's threshold in seconds.
	LatencyThresholdSec float64 `json:"latency_threshold_sec"`
}

// DefaultSLOObjectives is three nines availability with 95% of requests
// under 250 ms — a sane starting point for a planner that answers from
// caches in microseconds but occasionally pays a model build.
func DefaultSLOObjectives() SLOObjectives {
	return SLOObjectives{Availability: 0.999, LatencyTarget: 0.95, LatencyThresholdSec: 0.25}
}

// DefaultSLOWindows are the burn-rate windows: 5m and 1h form the page
// pair, 30m and 6h the ticket pair.
func DefaultSLOWindows() []time.Duration {
	return []time.Duration{5 * time.Minute, 30 * time.Minute, time.Hour, 6 * time.Hour}
}

// SLOConfig configures a tracker.
type SLOConfig struct {
	// Objectives defaults to DefaultSLOObjectives() when zero.
	Objectives SLOObjectives
	// Windows defaults to DefaultSLOWindows(); they are sorted ascending.
	// The longest window bounds the ring's horizon.
	Windows []time.Duration
	// Clock overrides time.Now, so tests drive the ring without sleeping.
	Clock func() time.Time
}

// sloBucket is one ring slot's tally.
type sloBucket struct {
	start int64 // unix seconds of the bucket's aligned start; 0 = empty
	total uint64
	good  uint64 // availability successes
	fast  uint64 // latency successes (subset of good)
}

// SLO is the windowed tracker. Build with NewSLO; a nil *SLO is a no-op on
// Record so callers need no guard.
type SLO struct {
	obj       SLOObjectives
	windows   []time.Duration
	clock     func() time.Time
	bucketSec int64

	mu      sync.Mutex
	buckets []sloBucket
}

// NewSLO builds a tracker; zero config fields take defaults.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Objectives == (SLOObjectives{}) {
		cfg.Objectives = DefaultSLOObjectives()
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = DefaultSLOWindows()
	}
	windows := append([]time.Duration(nil), cfg.Windows...)
	for i := 1; i < len(windows); i++ {
		for j := i; j > 0 && windows[j] < windows[j-1]; j-- {
			windows[j], windows[j-1] = windows[j-1], windows[j]
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	// Bucket width: a tenth of the shortest window (≥1 s), so short-window
	// burn rates have usable resolution and the 6 h horizon stays a few
	// hundred slots.
	bucketSec := int64(windows[0].Seconds() / 10)
	if bucketSec < 1 {
		bucketSec = 1
	}
	n := int(windows[len(windows)-1].Seconds())/int(bucketSec) + 2
	return &SLO{
		obj: cfg.Objectives, windows: windows, clock: clock,
		bucketSec: bucketSec, buckets: make([]sloBucket, n),
	}
}

// RecordAt is Record with a caller-supplied observation time, for callers on
// a hot path that already hold a reading of the same clock.
func (s *SLO) RecordAt(at time.Time, ok bool, durSec float64) {
	if s == nil {
		return
	}
	now := at.Unix()
	start := now - now%s.bucketSec
	i := int(start/s.bucketSec) % len(s.buckets)
	s.mu.Lock()
	b := &s.buckets[i]
	if b.start != start {
		*b = sloBucket{start: start}
	}
	b.total++
	if ok {
		b.good++
		if durSec <= s.obj.LatencyThresholdSec {
			b.fast++
		}
	}
	s.mu.Unlock()
}

// SLOWindowStatus is one window's burn accounting.
type SLOWindowStatus struct {
	WindowSec float64 `json:"window_sec"`
	Total     uint64  `json:"total"`
	// ErrorRate is 1 − availability over the window (0 with no traffic).
	ErrorRate float64 `json:"error_rate"`
	// AvailabilityBurn is ErrorRate divided by the availability error
	// budget (1 − objective).
	AvailabilityBurn float64 `json:"availability_burn"`
	// LatencyAttainment is the fraction of successes within threshold
	// (1 with no traffic).
	LatencyAttainment float64 `json:"latency_attainment"`
	// LatencyBurn is (1 − attainment) divided by the latency budget.
	LatencyBurn float64 `json:"latency_burn"`
}

// SLOStatus is the tracker's full report, the /slo response body.
type SLOStatus struct {
	Objectives SLOObjectives     `json:"objectives"`
	Windows    []SLOWindowStatus `json:"windows"`
	// PageBurn/TicketBurn follow the SRE-workbook dual-window rule: page
	// when the shortest and the second-longest windows both burn ≥ 14.4
	// (budget gone in under 2 days at a 30-day period); ticket when the
	// second-shortest and longest both burn ≥ 6.
	PageBurn   bool `json:"page_burn"`
	TicketBurn bool `json:"ticket_burn"`
}

// Status computes every window's burn rates at the tracker's current time.
func (s *SLO) Status() SLOStatus {
	now := s.clock().Unix()
	s.mu.Lock()
	buckets := append([]sloBucket(nil), s.buckets...)
	s.mu.Unlock()

	st := SLOStatus{Objectives: s.obj}
	availBudget := 1 - s.obj.Availability
	latBudget := 1 - s.obj.LatencyTarget
	worst := func(burn float64, budget float64) float64 {
		if budget <= 0 {
			// A 100% objective has no budget: any error is infinite burn,
			// reported as a large sentinel rather than +Inf (JSON-safe).
			if burn > 0 {
				return 1e9
			}
			return 0
		}
		return burn / budget
	}
	for _, w := range s.windows {
		cutoff := now - int64(w.Seconds())
		var total, good, fast uint64
		for _, b := range buckets {
			if b.start != 0 && b.start > cutoff && b.start <= now {
				total += b.total
				good += b.good
				fast += b.fast
			}
		}
		// With no traffic (or no successes) both objectives are vacuously
		// met: error rate 0, attainment 1 — a quiet service never burns.
		ws := SLOWindowStatus{WindowSec: w.Seconds(), Total: total, LatencyAttainment: 1}
		if total > 0 {
			ws.ErrorRate = 1 - float64(good)/float64(total)
		}
		if good > 0 {
			ws.LatencyAttainment = float64(fast) / float64(good)
		}
		ws.AvailabilityBurn = worst(ws.ErrorRate, availBudget)
		ws.LatencyBurn = worst(1-ws.LatencyAttainment, latBudget)
		st.Windows = append(st.Windows, ws)
	}

	burnAt := func(i int) float64 {
		w := st.Windows[i]
		if w.AvailabilityBurn > w.LatencyBurn {
			return w.AvailabilityBurn
		}
		return w.LatencyBurn
	}
	n := len(st.Windows)
	if n >= 2 {
		shortIdx, longIdx := 0, n-2
		if n < 3 {
			longIdx = n - 1
		}
		st.PageBurn = burnAt(shortIdx) >= 14.4 && burnAt(longIdx) >= 14.4
		tShort, tLong := 1, n-1
		if n < 3 {
			tShort = 0
		}
		st.TicketBurn = burnAt(tShort) >= 6 && burnAt(tLong) >= 6
	}
	return st
}

// SLOCollector mirrors the tracker's burn rates into registry gauges, so
// the Prometheus exposition carries the same signal as /slo:
//
//	slo_error_rate{window="300s"}    slo_availability_burn{window="300s"}
//	slo_latency_attainment{...}      slo_latency_burn{...}
//	slo_page_burn / slo_ticket_burn  (0 or 1)
func SLOCollector(s *SLO) Collector {
	return func(r *Registry) {
		st := s.Status()
		errRate := r.GaugeVec("slo_error_rate", "window")
		aBurn := r.GaugeVec("slo_availability_burn", "window")
		lAtt := r.GaugeVec("slo_latency_attainment", "window")
		lBurn := r.GaugeVec("slo_latency_burn", "window")
		for _, w := range st.Windows {
			label := formatValue(w.WindowSec) + "s"
			errRate.With(label).Set(w.ErrorRate)
			aBurn.With(label).Set(w.AvailabilityBurn)
			lAtt.With(label).Set(w.LatencyAttainment)
			lBurn.With(label).Set(w.LatencyBurn)
		}
		b2f := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		r.Gauge("slo_page_burn").Set(b2f(st.PageBurn))
		r.Gauge("slo_ticket_burn").Set(b2f(st.TicketBurn))
	}
}
