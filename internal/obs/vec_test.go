package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("http_requests", "route", "code")
	vec.With("advise", "200").Add(3)
	vec.With("advise", "200").Inc()
	vec.With("plan", "500").Inc()

	if got := vec.With("advise", "200").Value(); got != 4 {
		t.Errorf("advise/200 = %d, want 4", got)
	}
	if got := vec.With("plan", "500").Value(); got != 1 {
		t.Errorf("plan/500 = %d, want 1", got)
	}
	if got := seriesCount(vec.vecCore); got != 2 {
		t.Errorf("series = %d, want 2", got)
	}

	// Same name returns the same vector; label names are ignored after
	// creation.
	if reg.CounterVec("http_requests", "other", "names") != vec {
		t.Error("second CounterVec call returned a different vector")
	}
}

func TestVecWrongLabelCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("With with wrong label count did not panic")
		}
	}()
	NewRegistry().CounterVec("c", "a", "b").With("only-one")
}

func TestVecRangeDeterministic(t *testing.T) {
	reg := NewRegistry()
	vec := reg.GaugeVec("g", "k")
	for _, v := range []string{"zebra", "alpha", "mid"} {
		vec.With(v).Set(1)
	}
	var order []string
	vec.Range(func(values []string, _ *Gauge) { order = append(order, values[0]) })
	want := []string{"alpha", "mid", "zebra"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Range order = %v, want %v", order, want)
		}
	}
}

// TestVecCardinalityBound drives a vector past its cap with adversarial
// label values (a fresh tenant key per request) and checks that growth stops
// at the cap plus one shared overflow series, with no samples lost.
func TestVecCardinalityBound(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("by_tenant", "tenant")
	const attack = DefaultMaxSeries * 4
	for i := 0; i < attack; i++ {
		vec.With(fmt.Sprintf("tenant-%d", i)).Inc()
	}
	if got, want := seriesCount(vec.vecCore), DefaultMaxSeries+1; got != want {
		t.Errorf("series count after attack = %d, want %d (cap + overflow)", got, want)
	}
	if got := vec.With(VecOverflowValue).Value(); got != attack-DefaultMaxSeries {
		t.Errorf("overflow series = %d, want %d", got, attack-DefaultMaxSeries)
	}
	// Established series keep working at the cap.
	vec.With("tenant-0").Inc()
	if got := vec.With("tenant-0").Value(); got != 2 {
		t.Errorf("tenant-0 = %d, want 2", got)
	}
	// Total samples conserved.
	var total int64
	vec.Range(func(_ []string, c *Counter) { total += c.Value() })
	if total != attack+1 {
		t.Errorf("total samples = %d, want %d", total, attack+1)
	}
}

func TestHistogramVecSharedBounds(t *testing.T) {
	reg := NewRegistry()
	vec := reg.HistogramVec("lat", []string{"route"}, []float64{0.1, 1})
	vec.With("a").Observe(0.05)
	vec.With("b").Observe(5)
	ba, _, _, _ := vec.With("a").export()
	bb, _, _, _ := vec.With("b").export()
	if len(ba) != 2 || len(bb) != 2 || ba[0] != 0.1 || bb[1] != 1 {
		t.Errorf("bounds a=%v b=%v, want [0.1 1] for both", ba, bb)
	}
	// nil bounds adopt the default latency buckets.
	dv := reg.HistogramVec("lat_default", []string{"route"}, nil)
	db, _, _, _ := dv.With("x").export()
	if len(db) != len(DefaultLatencyBuckets) {
		t.Errorf("default bounds len = %d, want %d", len(db), len(DefaultLatencyBuckets))
	}
}

// TestVecConcurrentAccess hammers one vector from many goroutines — mixed
// established and fresh (past-cap) label values — under the race detector.
func TestVecConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("c", "k")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				vec.With(fmt.Sprintf("k-%d", i%512)).Inc() // some past the 256 cap
				if i%100 == 0 {
					vec.Range(func([]string, *Counter) {})
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	vec.Range(func(_ []string, c *Counter) { total += c.Value() })
	if total != workers*perWorker {
		t.Errorf("total = %d, want %d", total, workers*perWorker)
	}
	if got := seriesCount(vec.vecCore); got > DefaultMaxSeries+1 {
		t.Errorf("series count = %d, exceeds cap+overflow", got)
	}
}

// seriesCount reports a family's live series (overflow included once made).
func seriesCount[M any](v *vecCore[M]) int {
	n := 0
	v.m.Range(func(any, any) bool { n++; return true })
	return n
}

// TestVecSnapshotConcurrent interleaves vector writes with Prometheus
// encodes, the shape a live scrape sees.
func TestVecSnapshotConcurrent(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("cv", "k").With("k0").Inc() // series exist before the first snapshot
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.CounterVec("cv", "k").With(fmt.Sprintf("k%d", i%64)).Inc()
			reg.GaugeVec("gv", "k").With("x").Set(float64(i))
			reg.HistogramVec("hv", []string{"k"}, nil).With("x").Observe(0.01)
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if !strings.Contains(sb.String(), `cv{k="k0"}`) {
			t.Error("exposition missing series")
		}
	}
	close(stop)
	wg.Wait()
}
