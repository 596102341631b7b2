package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
)

// bareWriter is the cheapest honest ResponseWriter: what a test measures
// through it is the daemon's own allocation, not a recorder's.
type bareWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *bareWriter) Header() http.Header { return w.h }
func (w *bareWriter) WriteHeader(c int)   { w.code = c }
func (w *bareWriter) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

// TestServeHitPathAllocs pins a cached /v1/advise — telemetry, limiter,
// admission, breaker, coalescer, planner, encoder — at 16 objects a request
// (40 before the hit path stopped paying for url.Values, reflection and a
// timer per request).
func TestServeHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s, err := New(Config{TenantRPS: 1e6, TenantBurst: 1e6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/advise?app=Video&c=2000&platform=aws&i=d0-17", nil)
	req.Header.Set("X-API-Key", "tenant-7")
	w := &bareWriter{h: http.Header{}}
	h := s.Handler()
	serve := func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	serve() // builds the models and the table
	if w.code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", w.code, w.body)
	}
	if got := testing.AllocsPerRun(200, serve); got > 16 {
		t.Errorf("cached /v1/advise allocates %.1f objects per request, want ≤ 16", got)
	}
	checkBodyAgainstOracle(t, "advise", w.body, new(adviseResponse))
}

func TestCeilDivNoOverflow(t *testing.T) {
	for _, degree := range []int{1, 2, 7, 40} {
		for _, c := range []int{1, degree, degree + 1, math.MaxInt - 1, math.MaxInt} {
			got := ceilDiv(c, degree)
			// ⌈c/degree⌉ without forming c + degree.
			want := c / degree
			if c%degree != 0 {
				want++
			}
			if got != want || got < 1 {
				t.Errorf("ceilDiv(%d, %d) = %d, want %d", c, degree, got, want)
			}
		}
	}
	// The request that used to answer "instances": -4611686018427387904.
	s := newTestServer(t, nil)
	rr, body := get(t, s, fmt.Sprintf("/v1/plan?app=Video&platform=aws&c=%d&degree=2", math.MaxInt), nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("plan at c=MaxInt: status %d: %v", rr.Code, body)
	}
	if got := body["instances"].(float64); got != float64(math.MaxInt/2+1) {
		t.Errorf("instances = %v, want %d", got, math.MaxInt/2+1)
	}
}

func TestMixedBounded(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct{ query, names string }{
		{"app=Video:20000&app=Sort:1", "20000"},
		{"app=Video:100000&app=Sort:1", "20000"},
		{"app=Video:100000000&app=Sort:1", "20000"},
		{fmt.Sprintf("app=Video:%d&app=Sort:%d", math.MaxInt, math.MaxInt), "20000"}, // Σ must not wrap
		{"app=Video:1&app=Sort:1&app=Xapian:1&app=Video:1&app=Sort:1&app=Xapian:1", "two to 5"},
	} {
		t0 := time.Now()
		rr, body := get(t, s, "/v1/mixed?platform=aws&"+tc.query, nil)
		msg, _ := body["error"].(string)
		if rr.Code != http.StatusBadRequest || !strings.Contains(msg, tc.names) {
			t.Errorf("%s: status %d %q, want a 400 naming %q", tc.query, rr.Code, msg, tc.names)
		}
		if el := time.Since(t0); el > time.Second {
			t.Errorf("%s: rejected only after %v", tc.query, el)
		}
	}
	if testing.Short() || raceEnabled {
		t.Skip("the largest admitted request plans for over a second")
	}
	t0 := time.Now()
	rr, body := get(t, s, "/v1/mixed?platform=aws&app=Video:19999&app=Sort:1", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("largest admitted request: status %d: %v", rr.Code, body)
	}
	if el, limit := time.Since(t0), s.cfg.RequestTimeout/2; el > limit {
		t.Errorf("largest admitted request took %v, want well inside RequestTimeout (%v)", el, limit)
	}
	if got := s.breaker.State(); got != resilience.BreakerClosed {
		t.Errorf("breaker %v after bounded mixed requests", got)
	}
}

// TestJointGridBounded: /v1/joint rejects a grid of more sizes than it will
// profile in one request, naming the bound, before any probe runs; the
// largest admitted grid plans.
func TestJointGridBounded(t *testing.T) {
	s := newTestServer(t, nil)
	grid := func(n int) string {
		sizes := make([]string, n)
		for i := range sizes {
			sizes[i] = strconv.Itoa(2048 + 512*i)
		}
		return "/v1/joint?app=Video&platform=aws&c=2000&sizes=" + strings.Join(sizes, ",")
	}
	for _, path := range []string{grid(maxGridSizes + 1), "/v1/joint?app=Video&platform=aws&sizes=" + strings.Repeat(",", 1<<16)} {
		rr, body := get(t, s, path, nil)
		msg, _ := body["error"].(string)
		if rr.Code != http.StatusBadRequest || !strings.Contains(msg, strconv.Itoa(maxGridSizes)) {
			t.Errorf("%.80s: status %d %q, want a 400 naming %d", path, rr.Code, msg, maxGridSizes)
		}
	}
	if n := s.pool.builds.Load(); n != 0 {
		t.Errorf("rejected grids built %d planners", n)
	}
	if rr, body := get(t, s, grid(maxGridSizes), nil); rr.Code != http.StatusOK {
		t.Errorf("%d-size grid: status %d: %v", maxGridSizes, rr.Code, body)
	}
}

// TestPlannerPoolBounded walks more distinct caller-supplied grids through
// the pool than it retains: the pool stops growing at maxCallerGrids plus
// the fixed entries (which are never the ones evicted), and an evicted grid
// rebuilds to the bytes it answered the first time.
func TestPlannerPoolBounded(t *testing.T) {
	s := newTestServer(t, nil)
	fetch := func(path string) string {
		t.Helper()
		rr, body := get(t, s, path, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", path, rr.Code, body)
		}
		return rr.Body.String()
	}
	fixed := []string{
		"/v1/advise?app=Video&platform=aws&c=2000",
		"/v1/joint?app=Video&platform=aws&c=2000",
		"/v1/joint?app=Video&platform=aws&c=2000&sizes=2560,5120,7680,10240", // the default grid, spelled out
	}
	for _, path := range fixed {
		fetch(path)
	}
	if n := s.pool.size(); n != 2 {
		t.Fatalf("degree-only + default grid (twice): %d entries, want 2", n)
	}
	oneSize := func(i int) string {
		return "/v1/joint?app=Video&platform=aws&c=2000&sizes=" + strconv.Itoa(4096+16*i)
	}
	first := fetch(oneSize(0))
	for i := 1; i <= maxCallerGrids+8; i++ {
		fetch(oneSize(i))
		if n := s.pool.size(); n > 2+maxCallerGrids {
			t.Fatalf("after %d caller grids the pool holds %d entries, want ≤ %d", i+1, n, 2+maxCallerGrids)
		}
	}
	builds := s.pool.builds.Load()
	for _, path := range fixed {
		fetch(path)
	}
	if n := s.pool.builds.Load(); n != builds {
		t.Errorf("fixed entries were evicted: %d rebuilds", n-builds)
	}
	if again := fetch(oneSize(0)); again != first {
		t.Errorf("evicted grid rebuilt to different bytes:\n%s\nthen\n%s", first, again)
	}
	if n := s.pool.builds.Load(); n != builds+1 {
		t.Errorf("the oldest caller grid was not the one evicted: %d rebuilds", n-builds)
	}
}

// TestEvictionCounterConcurrent pushes many one-shot tenants through a small
// limiter table from several goroutines. Every request inserts a bucket, so
// evictions are exactly inserts − survivors; the per-request
// Add(evicted − Value) this counter used to be maintained by double-counted
// whenever two requests read the same pair.
func TestEvictionCounterConcurrent(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.TenantRPS, c.TenantBurst, c.MaxTenants = 1000, 1000, 4
		c.MaxInFlight, c.MaxQueue = 8, 64
	})
	const workers, perWorker = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest("GET", fmt.Sprintf("/v1/advise?app=Video&platform=aws&c=500&i=%d-%d", w, i), nil)
				req.Header.Set("X-API-Key", fmt.Sprintf("once-%d-%d", w, i))
				rr := httptest.NewRecorder()
				s.Handler().ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					t.Errorf("tenant once-%d-%d: status %d", w, i, rr.Code)
				}
			}
		}(w)
	}
	wg.Wait()
	got := s.reg.Counter("ratelimit_evictions_total").Value()
	if want := int64(workers*perWorker - s.tenants.size()); got != want || got != s.tenants.evicted() {
		t.Errorf("ratelimit_evictions_total = %d, limiter says %d, inserts − survivors = %d", got, s.tenants.evicted(), want)
	}
	// The sizes are mirrored at scrape time.
	if snap := s.reg.Snapshot(); snap.Gauges["ratelimit_tenants"] != 4 || snap.Gauges["planner_models"] != 1 {
		t.Errorf("scrape-time gauges: tenants %v, models %v", snap.Gauges["ratelimit_tenants"], snap.Gauges["planner_models"])
	}
}

// TestCoalescedBodiesConcurrent holds a herd of identical requests to one
// body: the leader encodes into a pooled buffer it recycles on return, so
// every follower must have been handed its own copy.
func TestCoalescedBodiesConcurrent(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight, c.MaxQueue = 16, 16 })
	rr, _ := get(t, s, "/v1/advise?app=Video&platform=aws&c=300", nil)
	want := rr.Body.String()
	const herd = 8
	for round := 0; round < 3; round++ {
		bodies := make([]string, herd)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rr := httptest.NewRecorder()
				s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/advise?app=Video&platform=aws&c=300&delayms=60", nil))
				bodies[i] = rr.Body.String()
				// Churn the encoder pool while followers may still be writing.
				get(t, s, fmt.Sprintf("/v1/plan?app=Video&platform=aws&c=%d&degree=2", 100+i), nil)
			}(i)
		}
		wg.Wait()
		for i, b := range bodies {
			if b != want {
				t.Fatalf("round %d, request %d: coalesced body differs:\n%s\nwant:\n%s", round, i, b, want)
			}
		}
	}
	if s.reg.Counter("http_coalesced_total").Value() == 0 {
		t.Fatal("herd never coalesced")
	}
}
