package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workload"
)

// newTestServer builds a server with tight limits, test hooks on, and rate
// limiting off (tests that exercise the limiter opt back in via mutate).
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		MaxInFlight:    4,
		MaxQueue:       4,
		RequestTimeout: 5 * time.Second,
		TenantRPS:      -1,
		Seed:           1,
		TestHooks:      true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs one request against the in-process handler.
func get(t *testing.T, s *Server, path string, hdr map[string]string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	var body map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: non-JSON body %q", path, rr.Body.String())
	}
	return rr, body
}

func TestAdviseMatchesDirectPlanner(t *testing.T) {
	s := newTestServer(t, nil)
	rr, body := get(t, s, "/v1/advise?app=Video&platform=aws&c=2000&ws=0.5", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("advise: status %d: %v", rr.Code, body)
	}
	// The daemon must agree bit-for-bit with the library path at the same seed.
	w := workload.Video{}
	cfg := platform.AWSLambda()
	meas := &core.SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: 1}
	models, _, _, _, err := core.BuildModels(meas, core.ProfileOptionsFor(cfg, w.Demand()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := models.PlanFor(2000, core.Weights{Service: 0.5, Expense: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	plan := body["plan"].(map[string]any)
	if got := int(plan["degree"].(float64)); got != want.Degree {
		t.Fatalf("advise degree = %d, want %d", got, want.Degree)
	}
	if got := plan["predicted_service_sec"].(float64); got != want.PredictedServiceSec {
		t.Fatalf("advise service = %v, want %v", got, want.PredictedServiceSec)
	}
	if body["platform"] != cfg.Name {
		t.Fatalf("platform echo = %v, want %q", body["platform"], cfg.Name)
	}
}

func TestPlanQoSEndpoints(t *testing.T) {
	s := newTestServer(t, nil)
	rr, body := get(t, s, "/v1/plan?app=Video&platform=aws&c=2000&degree=5", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("plan: status %d: %v", rr.Code, body)
	}
	if got := int(body["instances"].(float64)); got != 400 {
		t.Fatalf("plan instances = %d, want 400", got)
	}
	// ⌈c/degree⌉ at c = MaxInt: this request once answered
	// "instances": -4611686018427387904.
	rr, body = get(t, s, fmt.Sprintf("/v1/plan?app=Video&platform=aws&c=%d&degree=2", math.MaxInt), nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("plan at c=MaxInt: status %d: %v", rr.Code, body)
	}
	if got := body["instances"].(float64); got != float64(math.MaxInt/2+1) {
		t.Errorf("instances at c=MaxInt = %v, want %d", got, math.MaxInt/2+1)
	}
	if body["service_sec"].(float64) <= 0 || body["expense_usd"].(float64) <= 0 {
		t.Fatalf("plan predictions not positive: %v", body)
	}

	rr, body = get(t, s, "/v1/qos?app=Xapian&platform=aws&c=2000&qos=120", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("qos: status %d: %v", rr.Code, body)
	}
	plan := body["plan"].(map[string]any)
	if plan["degree"].(float64) < 1 {
		t.Fatalf("qos degree missing: %v", body)
	}
	if body["tail_quantile"].(float64) != 95 {
		t.Fatalf("qos tail quantile = %v, want 95", body["tail_quantile"])
	}
}

func TestJointEndpoint(t *testing.T) {
	s := newTestServer(t, nil)

	// Custom size grid: the daemon must agree bit-for-bit with the library
	// path at the same seed.
	rr, body := get(t, s, "/v1/joint?app=Video&platform=aws&c=2000&ws=0.5&sizes=5120,10240", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("joint: status %d: %v", rr.Code, body)
	}
	cfg := platform.AWSLambda()
	d := workload.Video{}.Demand()
	probes, err := core.GridProbesFor(cfg, d, []float64{5120, 10240}, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid, _, err := core.BuildGridModels(probes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grid.Answer(core.Request{C: 2000, Weights: core.Weights{Service: 0.5, Expense: 0.5}, SizesMB: grid.MemSizesMB()})
	if err != nil {
		t.Fatal(err)
	}
	plan := body["plan"].(map[string]any)
	if got := int(plan["degree"].(float64)); got != want.Degree {
		t.Fatalf("joint degree = %d, want %d", got, want.Degree)
	}
	if got := body["mem_mb"].(float64); got != want.MemMB {
		t.Fatalf("joint mem_mb = %g, want %g", got, want.MemMB)
	}
	if got := plan["predicted_service_sec"].(float64); got != want.PredictedServiceSec {
		t.Fatalf("joint service = %g, want %g", got, want.PredictedServiceSec)
	}
	if got := len(body["sizes_mb"].([]any)); got != 2 {
		t.Fatalf("joint echoed %d sizes, want 2", got)
	}
	if body["max_degree"].(float64) < 1 {
		t.Fatalf("joint max_degree missing: %v", body)
	}

	// Default grid: quarter steps of the platform's instance memory.
	rr, body = get(t, s, "/v1/joint?app=Video&platform=aws&c=2000", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("joint default sizes: status %d: %v", rr.Code, body)
	}
	if got := len(body["sizes_mb"].([]any)); got != 4 {
		t.Fatalf("default grid has %d sizes, want 4", got)
	}

	// QoS over the grid: weights come from the Sec. 2.6 search.
	rr, body = get(t, s, "/v1/joint?app=Xapian&platform=aws&c=2000&qos=120", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("joint qos: status %d: %v", rr.Code, body)
	}
	if body["tail_quantile"].(float64) != 95 {
		t.Fatalf("joint qos tail quantile = %v", body["tail_quantile"])
	}
	if body["w_service"].(float64) < 0 || body["w_service"].(float64) > 1 {
		t.Fatalf("joint qos weights out of range: %v", body)
	}

	// Bad size grids are client errors, never 500s.
	for _, path := range []string{
		"/v1/joint?app=Video&platform=aws&sizes=abc",
		"/v1/joint?app=Video&platform=aws&sizes=4096,2048",
		"/v1/joint?app=Video&platform=aws&sizes=4096,4096",
		"/v1/joint?app=Video&platform=aws&sizes=-1",
		"/v1/joint?app=Video&platform=aws&sizes=999999999",
	} {
		rr, body := get(t, s, path, nil)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d (%v), want 400", path, rr.Code, body)
		}
	}
}

// TestMixedEndpoint: a pair and a four-app job both plan. Four apps'
// memory ceilings on AWS alone make 40·30·35·20 = 840 000 degree
// combinations, past the segregated walk's bound, so that job's segregated
// family is each app's own optimum.
func TestMixedEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct {
		query  string
		counts []int
	}{
		{"app=Video:60&app=Smith-Waterman:60", []int{60, 60}},
		{"app=Video:40&app=Stateless%20Cost:30&app=Smith-Waterman:35&app=Xapian:20", []int{40, 30, 35, 20}},
	} {
		rr, body := get(t, s, "/v1/mixed?platform=aws&ws=0.5&"+tc.query, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", tc.query, rr.Code, body)
		}
		if body["strategy"] != "mixed" && body["strategy"] != "segregated" {
			t.Fatalf("%s: mixed strategy = %v", tc.query, body["strategy"])
		}
		bins := body["bins"].([]any)
		if len(bins) == 0 {
			t.Fatalf("%s: mixed response has no bins", tc.query)
		}
		// The run-length encoding must preserve the total instance count
		// and every app's function count.
		total, funcs := 0, make([]int, len(tc.counts))
		for _, b := range bins {
			bin := b.(map[string]any)
			n := int(bin["n"].(float64))
			total += n
			for k, c := range bin["counts"].([]any) {
				funcs[k] += n * int(c.(float64))
			}
		}
		if total != int(body["instances"].(float64)) {
			t.Fatalf("%s: bins sum to %d instances, header says %v", tc.query, total, body["instances"])
		}
		if !slices.Equal(funcs, tc.counts) {
			t.Fatalf("%s: bins hold %v functions, want %v", tc.query, funcs, tc.counts)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		path string
		want int
		text string // in the error, where the test pins it
	}{
		{"/v1/advise?app=NoSuchApp&platform=aws", http.StatusBadRequest, ""},
		{"/v1/advise?app=Video&platform=nowhere", http.StatusBadRequest, ""},
		{"/v1/advise?app=Video&platform=aws&c=zero", http.StatusBadRequest, ""},
		{"/v1/advise?app=Video&platform=aws&c=-5", http.StatusBadRequest, ""},
		{"/v1/advise?app=Video&platform=aws&ws=1.5", http.StatusBadRequest, ""},
		{"/v1/qos?app=Video&platform=aws&c=100", http.StatusBadRequest, ""}, // missing qos
		// A bound replaces ws, but every route still judges it.
		{"/v1/qos?app=Video&platform=aws&c=100&qos=120&ws=2", http.StatusBadRequest, "core: weights outside [0,1]"},
		{"/v1/joint?app=Video&platform=aws&c=100&qos=120&ws=2", http.StatusBadRequest, "core: weights outside [0,1]"},
		{"/v1/joint?app=Video&platform=aws&sizes=5120,,10240", http.StatusBadRequest, "bad memory size"},
		{"/v1/plan?app=Video&platform=aws&c=100&degree=9999", http.StatusBadRequest, ""},
		{"/v1/mixed?app=Video:100&platform=aws", http.StatusBadRequest, ""},        // one app
		{"/v1/mixed?app=Video&app=Sort:1&platform=aws", http.StatusBadRequest, ""}, // bad spec
	}
	for _, tc := range cases {
		rr, body := get(t, s, tc.path, nil)
		if rr.Code != tc.want {
			t.Errorf("GET %s: status %d (%v), want %d", tc.path, rr.Code, body, tc.want)
		}
		if msg, _ := body["error"].(string); msg == "" || !strings.Contains(msg, tc.text) {
			t.Errorf("GET %s: error %q, want one containing %q", tc.path, msg, tc.text)
		}
	}
	// Wrong method.
	req := httptest.NewRequest("POST", "/v1/advise", strings.NewReader("{}"))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST advise: status %d, want 405", rr.Code)
	}
}

// TestPanicRecoveryKeepsServing: a request that fails server-side fails
// alone, however many do. A run of them — panics, and 500s a compute
// function returns, past the 20 failures that once opened a planner circuit
// on every route — leaves every other request, on every route and pair,
// served.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	s := newTestServer(t, nil)
	failing := s.endpoint("advise", func(context.Context, *params, *jsonEnc) error {
		return errors.New("planner failed")
	})
	const runs = 25
	for i := 0; i < runs; i++ {
		rr, body := get(t, s, "/v1/advise?app=Video&platform=aws&c=100&panic=1", nil)
		if rr.Code != http.StatusInternalServerError {
			t.Fatalf("panic hook %d: status %d (%v), want 500", i, rr.Code, body)
		}
		fr := httptest.NewRecorder()
		failing.ServeHTTP(fr, httptest.NewRequest("GET", fmt.Sprintf("/v1/advise?app=Video&platform=aws&c=100&i=%d", i), nil))
		if fr.Code != http.StatusInternalServerError {
			t.Fatalf("failing compute %d: status %d (%s), want 500", i, fr.Code, fr.Body.String())
		}
	}
	if got := s.reg.Counter("http_panics_total").Value(); got != runs {
		t.Fatalf("http_panics_total = %d, want %d", got, runs)
	}
	rr, body := get(t, s, "/v1/advise?app=Video&platform=aws&c=100", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("request after %d panics and %d failures: status %d (%v), want 200", runs, runs, rr.Code, body)
	}
}

// panickyMeasurer is a SimMeasurer whose interference probes trip a
// simulator invariant, as a corrupt platform config would.
type panickyMeasurer struct{ *core.SimMeasurer }

func (panickyMeasurer) MeasureExecCall(degree, call int) (float64, float64, error) {
	panic("sim: negative service time")
}

// TestProbePanicFailsOneRequest drives a model build whose probes panic —
// on parallel.Map's worker goroutines — through the whole guard chain and
// the pool's singleflight. Before Map carried a worker's panic to its
// caller this ended the process, past every recover on the request's stack.
func TestProbePanicFailsOneRequest(t *testing.T) {
	s := newTestServer(t, nil)
	w, err := workload.ByName("Video")
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.AWSLambda()
	h := s.endpoint("advise", func(ctx context.Context, _ *params, _ *jsonEnc) error {
		_, err, _ := s.pool.flights.Do(ctx, "panicky", func() (any, error) {
			meas := panickyMeasurer{&core.SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: 1}}
			models, _, _, _, err := core.BuildModels(meas, core.ProfileOptionsFor(cfg, w.Demand()))
			return models, err
		})
		return err
	})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/advise?app=Video&platform=aws&c=100", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking build: status %d, want 500", rr.Code)
	}
	if got := s.reg.Counter("http_panics_total").Value(); got != 1 {
		t.Fatalf("http_panics_total = %d, want 1", got)
	}
	if rr, _ := get(t, s, "/v1/advise?app=Video&platform=aws&c=100", nil); rr.Code != http.StatusOK {
		t.Fatalf("request after the panic: status %d, want 200", rr.Code)
	}
}

func TestRequestDeadline(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = 50 * time.Millisecond })
	rr, body := get(t, s, "/v1/advise?app=Video&platform=aws&c=100&delayms=2000", nil)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline: status %d (%v), want 504", rr.Code, body)
	}
}

func TestHooksDisabledInProduction(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.TestHooks = false })
	// With hooks off the params are inert: no delay, no panic.
	rr, _ := get(t, s, "/v1/advise?app=Video&platform=aws&c=100&panic=1&delayms=60000", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("hooks off: status %d, want 200", rr.Code)
	}
}

func TestTenantRateLimit(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	s := newTestServer(t, func(c *Config) {
		c.TenantRPS = 1
		c.TenantBurst = 2
		c.Clock = clock
	})
	path := "/v1/advise?app=Video&platform=aws&c=100"
	for i := 0; i < 2; i++ {
		if rr, _ := get(t, s, path, nil); rr.Code != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, rr.Code)
		}
	}
	rr, body := get(t, s, path, nil)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst: status %d (%v), want 429", rr.Code, body)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 missing Retry-After, got %q", ra)
	}
	// A different tenant has its own bucket.
	if rr, _ := get(t, s, path, map[string]string{"X-API-Key": "tenant-b"}); rr.Code != http.StatusOK {
		t.Fatalf("second tenant: status %d, want 200", rr.Code)
	}
	// Time refills the anonymous bucket.
	advance(2 * time.Second)
	if rr, _ := get(t, s, path, nil); rr.Code != http.StatusOK {
		t.Fatalf("after refill: status %d, want 200", rr.Code)
	}
	if got := s.reg.Counter("http_ratelimited_total").Value(); got != 1 {
		t.Fatalf("http_ratelimited_total = %d, want 1", got)
	}
}

func TestTenantEvictionBounded(t *testing.T) {
	l := newTenantLimiter(10, 10, 3, new(obs.Counter))
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 10; i++ {
		l.allow(fmt.Sprintf("tenant-%d", i), now.Add(time.Duration(i)*time.Second))
	}
	if got := l.size(); got != 3 {
		t.Fatalf("limiter size = %d, want capped at 3", got)
	}
	if l.evicted() != 7 {
		t.Fatalf("evictions = %d, want 7", l.evicted())
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionShedsOverload holds every admission slot and offers 32
// arrivals against MaxInFlight 4 and MaxQueue 4: exactly four queue, the
// other 24 are shed at once with 429 and Retry-After while the slots are
// still held, and all eight admitted requests then answer 200.
func TestAdmissionShedsOverload(t *testing.T) {
	const slots, queue, arrivals = 4, 4, 32
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = slots
		c.MaxQueue = queue
	})
	// Warm the model cache so an admitted request's duration is its hook
	// delay.
	if rr, _ := get(t, s, "/v1/advise?app=Video&platform=aws&c=100", nil); rr.Code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	serve := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}
	admitted := make(chan int, slots+queue)
	for i := 0; i < slots; i++ {
		go func(i int) {
			admitted <- serve(fmt.Sprintf("/v1/advise?app=Video&platform=aws&c=100&delayms=500&i=h%d", i)).Code
		}(i)
	}
	waitFor(t, "every slot held", func() bool { return s.adm.inFlight() == slots })
	for i := 0; i < queue; i++ {
		go func(i int) {
			admitted <- serve(fmt.Sprintf("/v1/advise?app=Video&platform=aws&c=100&i=q%d", i)).Code
		}(i)
	}
	waitFor(t, "queue full", func() bool { return s.adm.queued() == queue })

	for i := slots + queue; i < arrivals; i++ {
		rr := serve(fmt.Sprintf("/v1/advise?app=Video&platform=aws&c=100&i=s%d", i))
		if rr.Code != http.StatusTooManyRequests || rr.Header().Get("Retry-After") != "1" {
			t.Fatalf("arrival %d: status %d, Retry-After %q; want 429 shed, 1", i, rr.Code, rr.Header().Get("Retry-After"))
		}
	}
	// Shedding waited on nothing: the slots are still held, and no queued
	// request moved.
	if in, q, done := s.adm.inFlight(), s.adm.queued(), len(admitted); in != slots || q != queue || done != 0 {
		t.Fatalf("after the sheds: %d in flight, %d queued, %d answered; want %d, %d, 0", in, q, done, slots, queue)
	}
	if got := s.reg.Counter("http_shed_total").Value(); got != arrivals-slots-queue {
		t.Fatalf("http_shed_total = %d, want %d", got, arrivals-slots-queue)
	}
	for i := 0; i < slots+queue; i++ {
		if code := <-admitted; code != http.StatusOK {
			t.Fatalf("admitted request finished with %d, want 200", code)
		}
	}
}

func TestQueueTimeout503(t *testing.T) {
	s := newTestServer(t, nil)
	// Fill all 4 slots with held requests.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			get(t, s, fmt.Sprintf("/v1/advise?app=Video&platform=aws&c=100&delayms=500&i=%d", i), nil)
		}(i)
	}
	waitFor(t, "slots full", func() bool { return s.adm.inFlight() == 4 })
	// A queued request whose client gives up gets a 503, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("GET", "/v1/advise?app=Video&platform=aws&c=100&i=q", nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("queue timeout: status %d, want 503", rr.Code)
	}
	wg.Wait()
}

func TestCoalescingIdenticalRequests(t *testing.T) {
	s := newTestServer(t, nil)
	if rr, _ := get(t, s, "/v1/advise?app=Video&platform=aws&c=300", nil); rr.Code != 200 {
		t.Fatal("warmup failed")
	}
	builds := s.pool.builds.Load()
	const herd = 8
	var wg sync.WaitGroup
	codes := make([]int, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Identical path (delay forces overlap): one compute, herd−1 waits.
			rr, _ := get(t, s, "/v1/advise?app=Video&platform=aws&c=300&delayms=150", nil)
			codes[i] = rr.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("herd request %d: status %d", i, code)
		}
	}
	if got := s.reg.Counter("http_coalesced_total").Value(); got == 0 {
		t.Fatal("no coalescing observed for an identical herd")
	}
	if got := s.pool.builds.Load(); got != builds {
		t.Fatalf("herd rebuilt models: %d new builds", got-builds)
	}
}

func TestHealthAndDebugRoutes(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EnableDebug = true })
	rr, body := get(t, s, "/healthz", nil)
	if rr.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", rr.Code, body)
	}
	rr, body = get(t, s, "/readyz", nil)
	if rr.Code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("readyz before Run: %d %v, want 503 draining", rr.Code, body)
	}
	s.SetReady(true)
	rr, body = get(t, s, "/readyz", nil)
	if rr.Code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz after SetReady: %d %v", rr.Code, body)
	}
	// Debug mux mounted on the same handler.
	req := httptest.NewRequest("GET", "/metrics", nil)
	mrr := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrr, req)
	if mrr.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", mrr.Code)
	}
}

// TestGracefulDrainLossless runs the real listener path: cancel Run with a
// request in flight and assert the request completes, readiness flips
// during the grace period, and Run exits nil.
func TestGracefulDrainLossless(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DrainGrace = 200 * time.Millisecond
		c.DrainTimeout = 5 * time.Second
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	waitFor(t, "server ready", func() bool { return s.Ready() })

	// Launch a slow request, then start the drain while it is in flight.
	type result struct {
		code int
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/advise?app=Video&platform=aws&c=100&delayms=600")
		if err != nil {
			slow <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slow <- result{resp.StatusCode, nil}
	}()
	waitFor(t, "slow request in flight", func() bool { return s.adm.inFlight() == 1 })
	cancel()

	// During the grace window the listener still answers and /readyz says 503.
	waitFor(t, "readiness flipped", func() bool { return !s.Ready() })
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("readyz during grace: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during grace: status %d, want 503", resp.StatusCode)
	}

	// The in-flight request is never dropped.
	r := <-slow
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: code %d err %v", r.code, r.err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v, want nil after clean drain", err)
	}
}

func TestFlightGroupFollowerTimeout(t *testing.T) {
	var g flightGroup
	leaderGo := make(chan struct{})
	go g.Do(context.Background(), "k", func() (any, error) {
		close(leaderGo)
		time.Sleep(300 * time.Millisecond)
		return "late", nil
	})
	<-leaderGo
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err, shared := g.Do(ctx, "k", func() (any, error) { return "never", nil })
	if !shared || err == nil {
		t.Fatalf("follower: shared=%v err=%v, want shared timeout", shared, err)
	}
}
