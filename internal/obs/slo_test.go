package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// sloClock is a settable test clock.
type sloClock struct {
	mu sync.Mutex
	t  time.Time
}

func newSLOClock() *sloClock {
	return &sloClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *sloClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *sloClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testSLO(clock *sloClock) *SLO {
	return NewSLO(SLOConfig{Clock: clock.now})
}

func TestSLONilReceiver(t *testing.T) {
	var s *SLO
	s.Record(true, 0.1) // must not panic
}

func TestSLODefaults(t *testing.T) {
	s := NewSLO(SLOConfig{})
	if s.Objectives() != DefaultSLOObjectives() {
		t.Errorf("objectives = %+v", s.Objectives())
	}
	st := s.Status()
	if len(st.Windows) != len(DefaultSLOWindows()) {
		t.Fatalf("windows = %d", len(st.Windows))
	}
	// Quiet service: vacuously healthy.
	for _, w := range st.Windows {
		if w.ErrorRate != 0 || w.LatencyAttainment != 1 || w.AvailabilityBurn != 0 || w.LatencyBurn != 0 {
			t.Errorf("idle window not vacuously healthy: %+v", w)
		}
	}
	if st.PageBurn || st.TicketBurn {
		t.Error("idle tracker alerting")
	}
}

func TestSLOBurnMath(t *testing.T) {
	clock := newSLOClock()
	s := testSLO(clock)
	// 1000 requests, 10 failures → error rate 1%. Availability objective
	// 99.9% → budget 0.1% → burn 10.
	for i := 0; i < 990; i++ {
		s.Record(true, 0.01)
	}
	for i := 0; i < 10; i++ {
		s.Record(false, 0.01)
	}
	st := s.Status()
	w := st.Windows[0] // 5m
	if w.Total != 1000 {
		t.Fatalf("total = %d", w.Total)
	}
	if diff := w.ErrorRate - 0.01; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("error rate = %v, want 0.01", w.ErrorRate)
	}
	if diff := w.AvailabilityBurn - 10; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("availability burn = %v, want 10", w.AvailabilityBurn)
	}
	// All successes were fast → latency attainment 1, burn 0.
	if w.LatencyAttainment != 1 || w.LatencyBurn != 0 {
		t.Errorf("latency: attainment=%v burn=%v", w.LatencyAttainment, w.LatencyBurn)
	}
}

func TestSLOLatencyBurn(t *testing.T) {
	clock := newSLOClock()
	s := testSLO(clock)
	// 100 successes, 10 slow (past the 250 ms threshold) → attainment 0.9.
	// Latency objective 95% → budget 5% → burn (1−0.9)/0.05 = 2.
	for i := 0; i < 90; i++ {
		s.Record(true, 0.01)
	}
	for i := 0; i < 10; i++ {
		s.Record(true, 1.5)
	}
	w := s.Status().Windows[0]
	if diff := w.LatencyAttainment - 0.9; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("attainment = %v, want 0.9", w.LatencyAttainment)
	}
	if diff := w.LatencyBurn - 2; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("latency burn = %v, want 2", w.LatencyBurn)
	}
	// A slow failure is not counted against the latency objective (it
	// already burned availability budget).
	s.Record(false, 9.9)
	w = s.Status().Windows[0]
	if diff := w.LatencyAttainment - 0.9; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("attainment after slow failure = %v, want 0.9", w.LatencyAttainment)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	clock := newSLOClock()
	s := testSLO(clock)
	for i := 0; i < 100; i++ {
		s.Record(false, 0.01)
	}
	st := s.Status()
	if st.Windows[0].Total != 100 {
		t.Fatalf("5m window total = %d", st.Windows[0].Total)
	}
	// Step past the 5m window: the failures leave the short window but stay
	// in the 6h one.
	clock.advance(6 * time.Minute)
	st = s.Status()
	if st.Windows[0].Total != 0 {
		t.Errorf("5m window total after expiry = %d, want 0", st.Windows[0].Total)
	}
	last := st.Windows[len(st.Windows)-1]
	if last.Total != 100 {
		t.Errorf("6h window total = %d, want 100", last.Total)
	}
	// Step past the longest horizon: the ring reuses slots and the tallies
	// vanish everywhere.
	clock.advance(7 * time.Hour)
	s.Record(true, 0.01) // touch a slot so stale buckets are judged by time, not slot reuse
	st = s.Status()
	if last := st.Windows[len(st.Windows)-1]; last.Total != 1 {
		t.Errorf("6h window total after horizon = %d, want 1", last.Total)
	}
}

func TestSLOPageAndTicketRules(t *testing.T) {
	clock := newSLOClock()
	s := testSLO(clock)
	// 100% failures: error rate 1, burn 1/0.001 = 1000 across all windows →
	// both alert pairs fire.
	for i := 0; i < 50; i++ {
		s.Record(false, 0.01)
	}
	st := s.Status()
	if !st.PageBurn || !st.TicketBurn {
		t.Errorf("full outage did not alert: page=%v ticket=%v", st.PageBurn, st.TicketBurn)
	}

	// Error rate just above budget (burn ≈ 2): no page, no ticket.
	clock2 := newSLOClock()
	s2 := testSLO(clock2)
	for i := 0; i < 998; i++ {
		s2.Record(true, 0.01)
	}
	s2.Record(false, 0.01)
	s2.Record(false, 0.01)
	st2 := s2.Status()
	if st2.PageBurn || st2.TicketBurn {
		t.Errorf("burn ~2 alerted: page=%v ticket=%v", st2.PageBurn, st2.TicketBurn)
	}

	// A spike that has left the short window no longer pages even though the
	// long window still burns (the dual-window rule's point).
	clock3 := newSLOClock()
	s3 := testSLO(clock3)
	for i := 0; i < 100; i++ {
		s3.Record(false, 0.01)
	}
	clock3.advance(10 * time.Minute)
	for i := 0; i < 1000; i++ {
		s3.Record(true, 0.01)
	}
	st3 := s3.Status()
	if st3.PageBurn {
		t.Error("stale spike still paging after short window recovered")
	}
}

func TestSLOZeroBudgetSentinel(t *testing.T) {
	clock := newSLOClock()
	s := NewSLO(SLOConfig{
		Objectives: SLOObjectives{Availability: 1, LatencyTarget: 1, LatencyThresholdSec: 0.1},
		Clock:      clock.now,
	})
	s.Record(false, 0.01)
	w := s.Status().Windows[0]
	if w.AvailabilityBurn != 1e9 {
		t.Errorf("zero-budget burn = %v, want 1e9 sentinel", w.AvailabilityBurn)
	}
}

func TestSLOCollectorExports(t *testing.T) {
	clock := newSLOClock()
	s := testSLO(clock)
	s.Record(true, 0.01)
	s.Record(false, 0.01)
	reg := NewRegistry()
	reg.RegisterCollector(SLOCollector(s))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := validateExposition(t, sb.String())
	if samples[`slo_error_rate{window="300s"}`] != "0.5" {
		t.Errorf("slo_error_rate{window=300s} = %q, want 0.5", samples[`slo_error_rate{window="300s"}`])
	}
	if _, ok := samples["slo_page_burn"]; !ok {
		t.Error("slo_page_burn gauge missing")
	}
}

// TestSLOConcurrentRecord hammers Record and Status together for the -race
// stress job.
func TestSLOConcurrentRecord(t *testing.T) {
	clock := newSLOClock()
	s := testSLO(clock)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				s.Record(i%10 != 0, 0.01)
				if i%500 == 0 {
					clock.advance(time.Second)
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		_ = s.Status()
	}
	wg.Wait()
	st := s.Status()
	if st.Windows[0].Total == 0 {
		t.Error("no traffic recorded")
	}
}
