package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

const adviseURL = "/v1/advise?app=Video&platform=aws&c=500"

func TestRequestIDGenerated(t *testing.T) {
	s := newTestServer(t, nil)
	rr, _ := get(t, s, adviseURL, nil)
	id := rr.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatal("response missing X-Request-ID")
	}
	if !regexp.MustCompile(`^[0-9a-f]{8}-\d+$`).MatchString(id) {
		t.Errorf("generated ID %q not in base-seq form", id)
	}
	rr2, _ := get(t, s, adviseURL, nil)
	if rr2.Header().Get("X-Request-ID") == id {
		t.Error("two requests shared a generated request ID")
	}
}

func TestRequestIDClientSupplied(t *testing.T) {
	s := newTestServer(t, nil)
	rr, _ := get(t, s, adviseURL, map[string]string{"X-Request-ID": "client-abc.123_x"})
	if got := rr.Header().Get("X-Request-ID"); got != "client-abc.123_x" {
		t.Errorf("valid client ID not propagated: got %q", got)
	}
	// Invalid IDs (bad alphabet, oversized) are replaced, never echoed: an
	// attacker-controlled header must not reach logs verbatim.
	for _, bad := range []string{"has space", "quote\"", "semi;colon", strings.Repeat("a", 65)} {
		rr, _ := get(t, s, adviseURL, map[string]string{"X-Request-ID": bad})
		if got := rr.Header().Get("X-Request-ID"); got == bad || got == "" {
			t.Errorf("invalid client ID %q handled as %q, want freshly generated", bad, got)
		}
	}
}

func TestRequestIDInErrorResponses(t *testing.T) {
	s := newTestServer(t, nil)
	rr, _ := get(t, s, "/v1/advise?app=Video&platform=aws&c=-3", nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rr.Code)
	}
	if rr.Header().Get("X-Request-ID") == "" {
		t.Error("error response missing X-Request-ID")
	}
}

func TestAccessLogCarriesRequestID(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	s := newTestServer(t, func(c *Config) { c.AccessLog = logger })
	rr, _ := get(t, s, adviseURL, map[string]string{"X-Request-ID": "trace-me-42"})
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, `"request_id":"trace-me-42"`) {
		t.Errorf("access log missing request ID: %q", logged)
	}
	if !strings.Contains(logged, `"route":"advise"`) || !strings.Contains(logged, `"code":200`) {
		t.Errorf("access log missing route/code: %q", logged)
	}
}

type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestRequestTraceSpans(t *testing.T) {
	rec := &obs.Memory{}
	s := newTestServer(t, func(c *Config) { c.Trace = rec })
	rr, _ := get(t, s, adviseURL, map[string]string{"X-Request-ID": "span-check"})
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	bursts := rec.Bursts()
	if len(bursts) != 1 {
		t.Fatalf("bursts = %d, want 1", len(bursts))
	}
	b := bursts[0]
	if b.Info.Label != "span-check" || b.Info.Platform != "serve" {
		t.Errorf("burst info = %+v", b.Info)
	}
	// The guard chain's span order: limit → admit → plan (an uncoalesced
	// request computes itself).
	var stages []obs.Stage
	for _, sp := range b.Spans {
		stages = append(stages, sp.Stage)
	}
	want := []obs.Stage{obs.StageLimit, obs.StageAdmit, obs.StagePlan}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stages = %v, want %v", stages, want)
		}
	}
	// Spans are ordered in time and non-negative.
	for i, sp := range b.Spans {
		if sp.DurSec() < 0 || sp.StartSec < 0 {
			t.Errorf("span %d has negative time: %+v", i, sp)
		}
		if i > 0 && sp.StartSec < b.Spans[i-1].StartSec {
			t.Errorf("span %d starts before its predecessor", i)
		}
	}
}

func TestRequestTraceCoalescedFollower(t *testing.T) {
	rec := &obs.Memory{}
	s := newTestServer(t, func(c *Config) { c.Trace = rec })
	// Two identical slow requests: the follower coalesces onto the leader.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("GET", "/v1/advise?app=Video&platform=aws&c=500&delayms=150", nil)
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	wg.Wait()
	var plans, coalesces int
	for _, b := range rec.Bursts() {
		for _, sp := range b.Spans {
			switch sp.Stage {
			case obs.StagePlan:
				plans++
			case obs.StageCoalesce:
				coalesces++
			}
		}
	}
	if plans != 1 || coalesces != 1 {
		t.Errorf("plan spans = %d, coalesce spans = %d; want 1 and 1", plans, coalesces)
	}
	if got := s.Registry().Counter("http_coalesced_total").Value(); got != 1 {
		t.Errorf("http_coalesced_total = %d", got)
	}
}

func TestREDMetricsLabeled(t *testing.T) {
	s := newTestServer(t, nil)
	get(t, s, adviseURL, nil)                                        // 200 anon
	get(t, s, adviseURL, map[string]string{"X-API-Key": "tenant-a"}) // 200 keyed
	get(t, s, "/v1/advise?app=Video&platform=aws&c=-3", nil)         // 400 anon
	get(t, s, "/v1/plan?app=Video&platform=aws&c=500&degree=2", nil) // other route

	snap := s.Registry().Snapshot()
	want := map[string]float64{
		`http_route_requests_total{route="advise",code="200",tenant_class="anon"}`:  1,
		`http_route_requests_total{route="advise",code="200",tenant_class="keyed"}`: 1,
		`http_route_requests_total{route="advise",code="400",tenant_class="anon"}`:  1,
		`http_route_requests_total{route="plan",code="200",tenant_class="anon"}`:    1,
	}
	for k, v := range want {
		if snap.Series[k] != v {
			t.Errorf("%s = %v, want %v", k, snap.Series[k], v)
		}
	}
	if hs, ok := snap.HistSeries[`http_route_seconds{route="advise"}`]; !ok || hs.Count != 3 {
		t.Errorf("http_route_seconds{route=advise} = %+v", hs)
	}
	// The raw tenant key must never appear as a label value.
	for k := range snap.Series {
		if strings.Contains(k, "tenant-a") {
			t.Errorf("raw tenant key leaked into series %q", k)
		}
	}
}

// TestTelemetryCardinalityBounded floods the server with adversarial tenant
// keys and checks the label space stays at the two tenant classes.
func TestTelemetryCardinalityBounded(t *testing.T) {
	s := newTestServer(t, nil)
	for i := 0; i < 300; i++ {
		get(t, s, adviseURL, map[string]string{"X-API-Key": fmt.Sprintf("attacker-%d", i)})
	}
	snap := s.Registry().Snapshot()
	classes := map[string]bool{}
	for k := range snap.Series {
		if !strings.HasPrefix(k, "http_route_requests_total{") {
			continue
		}
		classes[k] = true
		if strings.Contains(k, "attacker-") {
			t.Fatalf("attacker key leaked: %q", k)
		}
	}
	if len(classes) > 10 { // routes × codes × {anon,keyed} stays tiny
		t.Errorf("RED series exploded to %d: %v", len(classes), classes)
	}
}

func TestSLORouteAndAccounting(t *testing.T) {
	s := newTestServer(t, nil)
	get(t, s, adviseURL, nil)
	get(t, s, "/v1/advise?app=Video&platform=aws&c=500&panic=1", nil) // 500

	rr, body := get(t, s, "/slo", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/slo status = %d", rr.Code)
	}
	obj := body["objectives"].(map[string]any)
	if obj["availability"].(float64) != 0.999 {
		t.Errorf("objectives = %v", obj)
	}
	windows := body["windows"].([]any)
	if len(windows) != 4 {
		t.Fatalf("windows = %d", len(windows))
	}
	w0 := windows[0].(map[string]any)
	if w0["total"].(float64) != 2 {
		t.Errorf("5m total = %v, want 2 (the /slo scrape itself is not a /v1 request)", w0["total"])
	}
	if w0["error_rate"].(float64) != 0.5 {
		t.Errorf("error_rate = %v, want 0.5", w0["error_rate"])
	}
}

func TestMetricsRouteServesPrometheus(t *testing.T) {
	s := newTestServer(t, nil) // note: debug NOT enabled; /metrics mounts anyway
	get(t, s, adviseURL, nil)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE http_route_requests_total counter",
		`http_route_requests_total{route="advise",code="200",tenant_class="anon"} 1`,
		"# TYPE http_route_seconds histogram",
		"# TYPE stage_seconds_plan histogram",
		"# TYPE go_goroutines gauge",
		`breaker_states{state="closed"} 1`,
		`slo_error_rate{window="300s"}`,
		"# TYPE http_shed_total counter", // preregistered despite never firing
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDisableTelemetry(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.DisableTelemetry = true })
	rr, _ := get(t, s, adviseURL, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if rr.Header().Get("X-Request-ID") != "" {
		t.Error("telemetry-disabled server still assigns request IDs")
	}
	snap := s.Registry().Snapshot()
	for k := range snap.Series {
		if strings.HasPrefix(k, "http_route_requests_total{") {
			t.Errorf("telemetry-disabled server recorded RED series %q", k)
		}
	}
	// The legacy scalars still work.
	if snap.Counters["http_requests_total"] != 1 {
		t.Errorf("http_requests_total = %d", snap.Counters["http_requests_total"])
	}
}

// TestTelemetryConcurrentRequests exercises the full instrumented path —
// RED vectors, SLO recording, trace flushing — under the race detector.
func TestTelemetryConcurrentRequests(t *testing.T) {
	rec := &obs.Memory{}
	s := newTestServer(t, func(c *Config) {
		c.Trace = rec
		c.MaxInFlight = 8
		c.MaxQueue = 64
	})
	const workers, perWorker = 8, 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url := fmt.Sprintf("/v1/advise?app=Video&platform=aws&c=500&i=%d", (w*perWorker+i)%4)
				req := httptest.NewRequest("GET", url, nil)
				req.Header.Set("X-API-Key", fmt.Sprintf("t%d", w))
				s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			}
		}(w)
	}
	wg.Wait()

	// Every request produced exactly one burst, and bursts never interleave:
	// each has a full, well-ordered span set.
	bursts := rec.Bursts()
	if len(bursts) != workers*perWorker {
		t.Fatalf("bursts = %d, want %d", len(bursts), workers*perWorker)
	}
	for _, b := range bursts {
		if len(b.Spans) < 3 {
			t.Fatalf("burst %q has %d spans, want ≥3 (interleaved flush?)", b.Info.Label, len(b.Spans))
		}
		if b.Spans[0].Stage != obs.StageLimit || b.Spans[1].Stage != obs.StageAdmit {
			t.Fatalf("burst %q span order broken: %+v", b.Info.Label, b.Spans)
		}
	}
	var total float64
	snap := s.Registry().Snapshot()
	for k, v := range snap.Series {
		if strings.HasPrefix(k, `http_route_requests_total{route="advise"`) {
			total += v
		}
	}
	if int(total) != workers*perWorker {
		t.Errorf("RED total = %v, want %d", total, workers*perWorker)
	}
}
