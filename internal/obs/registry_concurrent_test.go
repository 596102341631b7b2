package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentRegistryCounts hammers one registry from many goroutines —
// first-touch races on the same names, increments, gauge stores, histogram
// observes, and scrapes taken mid-flight — then checks the final totals.
// Run under -race this also proves the lock-free read path is sound.
func TestConcurrentRegistryCounts(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const iters = 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("shared_total").Inc()
				reg.Counter(fmt.Sprintf("per_goroutine_%d", g%4)).Inc()
				reg.Gauge("last_value").Set(float64(i))
				reg.Histogram("latency", nil).Observe(0.01 * float64(i%10))
				if i%100 == 0 {
					_ = reg.WritePrometheus(io.Discard) // concurrent scrapes must not wedge or race
				}
			}
		}()
	}
	wg.Wait()

	if got := reg.Counter("shared_total").Value(); got != goroutines*iters {
		t.Fatalf("shared_total = %d, want %d", got, goroutines*iters)
	}
	var perG int64
	for g := 0; g < 4; g++ {
		perG += reg.Counter(fmt.Sprintf("per_goroutine_%d", g)).Value()
	}
	if perG != goroutines*iters {
		t.Fatalf("per-goroutine counters sum to %d, want %d", perG, goroutines*iters)
	}
	if got := reg.Histogram("latency", nil).Count(); got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

// TestConcurrentRegistryRecorder drives the RegistryRecorder hot path from
// multiple goroutines and checks the labeled stage and event families.
func TestConcurrentRegistryRecorder(t *testing.T) {
	reg := NewRegistry()
	rr := RegistryRecorder{Reg: reg}
	const goroutines = 8
	const events = 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < events; i++ {
				rr.Event(Event{Kind: EventCrash, DurSec: 0.5})
				rr.Span(Span{Stage: StageSched, StartSec: 0, EndSec: 0.1})
			}
		}()
	}
	wg.Wait()
	if got := reg.CounterVec("events_total", "kind").With("crash").Value(); got != goroutines*events {
		t.Fatalf("crash events = %d, want %d", got, goroutines*events)
	}
	if got := reg.HistogramVec("stage_seconds", []string{"stage"}, nil).With("sched").Count(); got != goroutines*events {
		t.Fatalf("sched spans = %d, want %d", got, goroutines*events)
	}
	if got := reg.Histogram("wasted_seconds", nil).Count(); got != goroutines*events {
		t.Fatalf("wasted observations = %d, want %d", got, goroutines*events)
	}
}

// TestCollectorsSerializedConcurrent mirrors a source count into a counter
// with the read-modify-write Add(source − Value()) the server's state
// collector uses. The collector holds its read for up to 50 ms waiting for a
// second scrape to enter; if two scrapes ran collectors at once, both would
// add the same delta and the mirror would end at 2.
func TestCollectorsSerializedConcurrent(t *testing.T) {
	reg := NewRegistry()
	const source = 1
	var entered atomic.Int32
	both := make(chan struct{})
	reg.RegisterCollector(func(r *Registry) {
		c := r.Counter("mirrored_total")
		seen := c.Value()
		if entered.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(50 * time.Millisecond):
		}
		c.Add(source - seen)
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = reg.WritePrometheus(io.Discard)
		}()
	}
	wg.Wait()
	if got := reg.Counter("mirrored_total").Value(); got != source {
		t.Fatalf("mirrored_total = %d after two concurrent scrapes, want %d", got, source)
	}
}
