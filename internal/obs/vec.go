package obs

import (
	"bufio"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric families: a family of Counter/Gauge/Histogram children keyed by an
// ordered tuple of label values — zero values for an unlabeled metric. Two
// production constraints shape the implementation:
//
//  1. The hot path must stay lock-free after first touch, consistent with
//     the registry's sharded/sync.Map design (PR 5): With() on an existing
//     series is one sync.Map read — no locks, no allocation beyond the key.
//  2. Cardinality must be bounded. Labels derived from request attributes
//     can be driven adversarially (a client minting a fresh tenant key per
//     request would otherwise grow the series map without limit), so every
//     vector caps its distinct series; past the cap, new label tuples
//     collapse into one shared overflow series whose every label value is
//     VecOverflowValue. The cap is a safety net, not a feature — emitters
//     should still map unbounded attributes to small classes before
//     labeling.

// DefaultMaxSeries bounds the distinct label-value combinations per family.
const DefaultMaxSeries = 256

// VecOverflowValue is the label value of the shared overflow series that
// absorbs new label tuples once a vector reaches its series cap.
const VecOverflowValue = "_overflow"

// labelSep joins label values into the series key. 0x1f (ASCII unit
// separator) cannot appear in sane label values; values containing it would
// only alias with each other.
const labelSep = "\x1f"

// series pairs a child metric with its label values, so exporters recover
// the labels without re-splitting keys.
type series[M any] struct {
	values []string
	metric M
}

// vecCore is the shared label-keying and cardinality-bounding machinery.
type vecCore[M any] struct {
	name   string
	kind   string // the exposition type: counter, gauge or histogram
	labels []string
	max    int64
	mk     func() M
	m      sync.Map // joined label values → *series[M]
	n      atomic.Int64
}

func newVecCore[M any](name, kind string, labels []string, mk func() M) *vecCore[M] {
	return &vecCore[M]{name: name, kind: kind, labels: append([]string(nil), labels...), max: DefaultMaxSeries, mk: mk}
}

func (v *vecCore[M]) describe() (kind string, arity int) { return v.kind, len(v.labels) }

func joinLabels(values []string) string { return strings.Join(values, labelSep) }

// with returns the child for the label tuple, creating it if the vector has
// room and routing to the overflow series otherwise. len(values) must equal
// len(labels) — a mismatch is a programming error at a fixed call site.
func (v *vecCore[M]) with(values []string) M {
	if len(values) != len(v.labels) {
		panic("obs: vector " + v.name + " got wrong label count")
	}
	key := joinLabels(values)
	if s, ok := v.m.Load(key); ok {
		return s.(*series[M]).metric
	}
	// Reserve a slot before storing, so racing first touches of distinct
	// tuples cannot overshoot the cap; a lost LoadOrStore returns its slot.
	if v.n.Add(1) > v.max {
		v.n.Add(-1)
		return v.overflow()
	}
	fresh := &series[M]{values: append([]string(nil), values...), metric: v.mk()}
	actual, loaded := v.m.LoadOrStore(key, fresh)
	if loaded {
		v.n.Add(-1)
	}
	return actual.(*series[M]).metric
}

// overflow returns the shared past-cap series, creating it on first need.
// It does not count against the cap (it is the cap's escape hatch).
func (v *vecCore[M]) overflow() M {
	values := make([]string, len(v.labels))
	for i := range values {
		values[i] = VecOverflowValue
	}
	key := joinLabels(values)
	if s, ok := v.m.Load(key); ok {
		return s.(*series[M]).metric
	}
	actual, _ := v.m.LoadOrStore(key, &series[M]{values: values, metric: v.mk()})
	return actual.(*series[M]).metric
}

// rangeSorted visits every series in deterministic (key-sorted) order.
func (v *vecCore[M]) rangeSorted(f func(values []string, m M)) {
	keys := make([]string, 0, 16)
	v.m.Range(func(k, _ any) bool { keys = append(keys, k.(string)); return true })
	sort.Strings(keys)
	for _, k := range keys {
		if s, ok := v.m.Load(k); ok {
			sv := s.(*series[M])
			f(sv.values, sv.metric)
		}
	}
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ *vecCore[*Counter] }

// With returns the counter for the label tuple.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// Range visits every series in deterministic order.
func (v *CounterVec) Range(f func(values []string, c *Counter)) { v.rangeSorted(f) }

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ *vecCore[*Gauge] }

// With returns the gauge for the label tuple.
func (v *GaugeVec) With(values ...string) *Gauge { return v.with(values) }

// Range visits every series in deterministic order.
func (v *GaugeVec) Range(f func(values []string, g *Gauge)) { v.rangeSorted(f) }

// HistogramVec is a family of histograms keyed by label values; every child
// shares the bounds fixed at the vector's creation.
type HistogramVec struct{ *vecCore[*Histogram] }

// With returns the histogram for the label tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }

// Range visits every series in deterministic order.
func (v *HistogramVec) Range(f func(values []string, h *Histogram)) { v.rangeSorted(f) }

// family is what the registry holds under a name: one of the three vector
// kinds, which the exposition asks for its header and its samples.
type family interface {
	describe() (kind string, arity int)
	write(bw *bufio.Writer, name string)
}

// lookup returns the family registered under name, building it with mk on
// first touch. A name keeps one kind and one label count for the registry's
// lifetime: asking for it as another panics, as a With with the wrong label
// count does, since the exposition carries one `# TYPE` line per name.
func lookup[F family](r *Registry, name string, arity int, mk func() F) F {
	v, ok := r.families.Load(name)
	if !ok {
		v, _ = r.families.LoadOrStore(name, mk())
	}
	f, ok := v.(F)
	if !ok {
		panic("obs: metric " + name + " already registered as another kind")
	}
	if _, n := f.describe(); n != arity {
		panic("obs: metric " + name + " already registered with another label count")
	}
	return f
}

// CounterVec returns the named counter family, creating it with the given
// label names if needed. Label names are fixed at creation: later calls must
// pass as many, and their names are ignored (same contract as Histogram
// bounds).
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return lookup(r, name, len(labels), func() *CounterVec {
		return &CounterVec{newVecCore(name, "counter", labels, func() *Counter { return &Counter{} })}
	})
}

// GaugeVec returns the named gauge family, creating it with the given label
// names if needed.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	return lookup(r, name, len(labels), func() *GaugeVec {
		return &GaugeVec{newVecCore(name, "gauge", labels, func() *Gauge { return &Gauge{} })}
	})
}

// HistogramVec returns the named histogram family, creating it with the
// given label names and bucket bounds (nil bounds mean
// DefaultLatencyBuckets) if needed.
func (r *Registry) HistogramVec(name string, labels []string, bounds []float64) *HistogramVec {
	return lookup(r, name, len(labels), func() *HistogramVec {
		shared := DefaultLatencyBuckets
		if bounds != nil {
			shared = bounds
		}
		shared = append([]float64(nil), shared...)
		return &HistogramVec{newVecCore(name, "histogram", labels, func() *Histogram { return NewHistogram(shared) })}
	})
}
