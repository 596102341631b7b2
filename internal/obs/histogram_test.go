package obs

import (
	"strings"
	"testing"
)

// Regression tests for the histogram zero-value contract: a Histogram built
// without bounds (directly, or via a RegistryRecorder's nil-bounds path) must
// adopt the default latency buckets and never leak NaN into the exposition.

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	h.Observe(0.02)
	h.Observe(3)
	bounds, counts, _, n := h.export()
	if len(bounds) != len(DefaultLatencyBuckets) {
		t.Fatalf("zero-value bounds len = %d, want default %d", len(bounds), len(DefaultLatencyBuckets))
	}
	if n != 2 || h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	if counts[2] != 1 { // 0.02 falls in (0.01, 0.025]
		t.Errorf("bucket counts = %v, want one observation under 0.025", counts)
	}
}

func TestNewHistogramNilBounds(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(0.5)
	if bounds, _, _, _ := h.export(); len(bounds) != len(DefaultLatencyBuckets) {
		t.Errorf("nil bounds len = %d, want default %d", len(bounds), len(DefaultLatencyBuckets))
	}
	// The registry path with nil bounds behaves identically.
	reg := NewRegistry()
	rh := reg.Histogram("custom_seconds", nil)
	rh.Observe(0.5)
	if bounds, _, _, _ := rh.export(); len(bounds) != len(DefaultLatencyBuckets) {
		t.Errorf("registry nil-bounds len = %d, want default %d", len(bounds), len(DefaultLatencyBuckets))
	}
}

func TestHistogramExpositionNoNaN(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty_hist", nil) // registered, never observed
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := validateExposition(t, sb.String())
	if samples["empty_hist_sum"] != "0" || samples["empty_hist_count"] != "0" {
		t.Errorf("empty histogram sum/count = %q/%q, want 0/0", samples["empty_hist_sum"], samples["empty_hist_count"])
	}
	if strings.Contains(sb.String(), "NaN") {
		t.Errorf("empty histogram exposition leaks NaN:\n%s", sb.String())
	}
}
