package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d must be ≥ 0; negative deltas are
// ignored so a counter never runs backwards).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that may move in both directions.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets are the fixed histogram bounds (in seconds) used for
// stage latencies: roughly exponential from 5 ms to 500 s, wide enough for
// both real kernels and simulated 5000-way scaling waves.
var DefaultLatencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
}

// Histogram is a fixed-bucket latency histogram: counts[i] observations fell
// in (bounds[i−1], bounds[i]], with one overflow bucket past the last bound.
// The zero value is usable and adopts DefaultLatencyBuckets on first
// Observe — constructing a Histogram directly (or asking the registry for
// one with nil bounds) must never yield a handle that panics or divides by
// zero.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// NewHistogram builds a histogram with the given bucket bounds; nil bounds
// mean DefaultLatencyBuckets. The bounds slice is not copied — callers that
// reuse one may share it across histograms (HistogramVec does).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// ensureInit backs the zero-value contract (callers hold h.mu).
func (h *Histogram) ensureInit() {
	if h.counts == nil {
		if h.bounds == nil {
			h.bounds = DefaultLatencyBuckets
		}
		h.counts = make([]uint64, len(h.bounds)+1)
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ensureInit()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// export copies the full histogram state under one lock, so exposition
// emits a self-consistent (buckets, sum, count) triple even under
// concurrent Observes.
func (h *Histogram) export() (bounds []float64, counts []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]uint64(nil), h.counts...), h.sum, h.n
}

// Registry is an in-process metrics registry: one map of metric families by
// name, each a CounterVec, GaugeVec or HistogramVec keyed by zero or more
// labels. An unlabeled metric is its family's one zero-label child. All
// methods are safe for concurrent use; handles are created on first touch
// and stable thereafter. Lookups on the hot increment path (every burst
// event under a RegistryRecorder) ride sync.Map's lock-free read fast path:
// after a metric's first touch, no Registry method takes a lock to reach it,
// so recorders on different goroutines never contend.
type Registry struct {
	families sync.Map // name → *CounterVec | *GaugeVec | *HistogramVec

	// collectMu serializes collector runs: a collector that mirrors a source
	// count with Add(source − Value()) would apply its delta twice under two
	// overlapping scrapes. collectorMu guards only the list, so a collector
	// may register another without deadlocking.
	collectMu   sync.Mutex
	collectorMu sync.Mutex
	collectors  []Collector
}

// Collector refreshes derived metrics (runtime stats, the serve daemon's
// queue and table sizes, SLO burn rates) at observation time. Registered
// collectors run before every WritePrometheus, so scrape-time values are
// current without a background goroutine polling between scrapes.
type Collector func(*Registry)

// RegisterCollector adds a collector. Collectors run in registration order,
// one scrape at a time, and must be safe to invoke concurrently with metric
// updates. A collector may register another, which runs from the next
// scrape on, but must not scrape its own registry.
func (r *Registry) RegisterCollector(c Collector) {
	r.collectorMu.Lock()
	defer r.collectorMu.Unlock()
	r.collectors = append(r.collectors, c)
}

// collect runs the registered collectors.
func (r *Registry) collect() {
	r.collectMu.Lock()
	defer r.collectMu.Unlock()
	r.collectorMu.Lock()
	cs := append([]Collector(nil), r.collectors...)
	r.collectorMu.Unlock()
	for _, c := range cs {
		c(r)
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named unlabeled counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With() }

// Gauge returns the named unlabeled gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name).With() }

// Histogram returns the named unlabeled histogram, creating it with the
// given bounds if needed (nil bounds mean DefaultLatencyBuckets). Bounds are
// fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.HistogramVec(name, nil, bounds).With()
}

// RegistryRecorder is a Recorder feeding a Registry: per-stage latency
// histograms (stage_seconds{stage}), per-kind event counters
// (events_total{kind}), burst counters, and instance gauges. This is what the
// CLI's -debug.addr endpoint exposes while a long run is in flight.
type RegistryRecorder struct {
	Reg *Registry
}

// BeginBurst implements Recorder.
func (rr RegistryRecorder) BeginBurst(b BurstInfo) {
	rr.Reg.Counter("bursts_total").Inc()
	rr.Reg.Counter("functions_total").Add(int64(b.Functions))
	rr.Reg.Counter("instances_total").Add(int64(b.Instances))
	rr.Reg.Gauge("last_burst_instances").Set(float64(b.Instances))
}

// Span implements Recorder.
func (rr RegistryRecorder) Span(s Span) {
	rr.Reg.HistogramVec("stage_seconds", []string{"stage"}, nil).With(s.Stage.String()).Observe(s.DurSec())
}

// Event implements Recorder.
func (rr RegistryRecorder) Event(e Event) {
	rr.Reg.CounterVec("events_total", "kind").With(e.Kind.String()).Inc()
	if e.DurSec > 0 {
		switch e.Kind {
		case EventCrash, EventTimeout, EventHedgeWaste:
			rr.Reg.Histogram("wasted_seconds", nil).Observe(e.DurSec)
		case EventBackoff:
			rr.Reg.Histogram("backoff_seconds", nil).Observe(e.DurSec)
		}
	}
}
