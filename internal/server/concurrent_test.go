package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/platform"
)

// TestServeConcurrentStress hammers every endpoint from many goroutines at
// once. Its name contains "Concurrent" so CI's race-stress job
// (go test -race -run Concurrent) picks it up: the point is to drive the
// admission semaphore, tenant limiter and planner pool (with its flight)
// simultaneously under the race detector. Functionally it asserts that the
// server only ever answers with its documented statuses and that the
// admission accounting returns to zero.
func TestServeConcurrentStress(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 4
		c.MaxQueue = 8
		c.TenantRPS = 1000 // enabled, but high enough to exercise the path without dominating
		c.TenantBurst = 1000
	})
	paths := []string{
		"/v1/advise?app=Video&platform=aws&c=500",
		"/v1/advise?app=Sort&platform=google&c=200&ws=0.8",
		"/v1/plan?app=Video&platform=aws&c=500&degree=4",
		"/v1/qos?app=Video&platform=aws&c=500&qos=200",
		"/v1/mixed?app=Video:40&app=Sort:40&platform=aws",
		"/healthz",
		"/readyz",
	}
	const (
		workers = 16
		iters   = 30
	)
	var (
		wg     sync.WaitGroup
		badMu  sync.Mutex
		bad    []string
		served atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				path := paths[(w+i)%len(paths)]
				// Half the traffic is unique (nonce), half repeats.
				if i%2 == 0 {
					sep := "&"
					if !strings.Contains(path, "?") {
						sep = "?"
					}
					path += fmt.Sprintf("%si=%d-%d", sep, w, i)
				}
				req := httptest.NewRequest("GET", path, nil)
				req.Header.Set("X-API-Key", fmt.Sprintf("tenant-%d", w%3))
				rr := httptest.NewRecorder()
				s.Handler().ServeHTTP(rr, req)
				served.Add(1)
				switch rr.Code {
				case http.StatusOK, http.StatusTooManyRequests,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					badMu.Lock()
					bad = append(bad, fmt.Sprintf("%s -> %d: %s", path, rr.Code, rr.Body.String()))
					badMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("unexpected statuses under stress (%d):\n%s", len(bad), bad[0])
	}
	if got := served.Load(); got != workers*iters {
		t.Fatalf("served %d requests, want %d", got, workers*iters)
	}
	// All slots and queue positions released.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.adm.inFlight() == 0 && s.adm.queued() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if fl, q := s.adm.inFlight(), s.adm.queued(); fl != 0 || q != 0 {
		t.Fatalf("leaked admission state: inflight=%d queued=%d", fl, q)
	}
}

// TestFlightGroupConcurrentKeys drives the pool's flight with many goroutines
// over few keys under -race: every caller must see the same (val, err) as
// its leader and the map must drain.
func TestFlightGroupConcurrentKeys(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%4)
				v, err := g.Do(t.Context(), key, func() (any, error) {
					calls.Add(1)
					return key, nil
				})
				if err != nil || v.(string) != key {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(32 * 200)
	if c := calls.Load(); c > total {
		t.Fatalf("leader ran %d times for %d calls", c, total)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.m) != 0 {
		t.Fatalf("flight map not drained: %d entries", len(g.m))
	}
}

// TestMixedHerdPlansOnce sends eight identical /v1/mixed jobs at once: the
// pool's flight must plan the job exactly once and every request answer the
// same bytes as a job planned alone. A wrapper over PlanMixedJob holds the
// flight's leader until all eight requests are admitted (the admission
// in-flight count) and inside the flight (their goroutines' stacks), so no
// request can arrive after the leader has finished. A second plan means the
// requests did not share one, and releases the wait.
func TestMixedHerdPlansOnce(t *testing.T) {
	const (
		herd = 8
		path = "/v1/mixed?app=Video:40&app=Sort:40&platform=aws&ws=0.7"
	)
	s := newTestServer(t, func(c *Config) { c.MaxInFlight, c.MaxQueue = herd, herd })
	var plans atomic.Int64
	s.pool.planMixed = func(cfg platform.Config, apps []orchestrator.MixedApp, w core.Weights, seed int64) (orchestrator.MixedJob, error) {
		plans.Add(1)
		for plans.Load() == 1 && (s.adm.inFlight() < herd || mixedFlightGoroutines() < herd) {
			time.Sleep(time.Millisecond)
		}
		return orchestrator.PlanMixedJob(cfg, apps, w, seed)
	}
	codes, bodies := make([]int, herd), make([]string, herd)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			codes[i], bodies[i] = rr.Code, rr.Body.String()
		}(i)
	}
	wg.Wait()
	if n := plans.Load(); n != 1 {
		t.Fatalf("a herd of %d identical jobs planned %d times, want once", herd, n)
	}
	s.pool.planMixed = orchestrator.PlanMixedJob
	rr, _ := get(t, s, path, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("job planned alone: status %d: %s", rr.Code, rr.Body)
	}
	for i, b := range bodies {
		if codes[i] != http.StatusOK || b != rr.Body.String() {
			t.Fatalf("herd request %d: status %d, body:\n%s\nwant the job planned alone:\n%s", i, codes[i], b, rr.Body)
		}
	}
}

// mixedFlightGoroutines counts the goroutines inside the pool's flight for a
// /v1/mixed job: its leader, planning, and the followers waiting on it.
func mixedFlightGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*flightGroup).Do")) && bytes.Contains(g, []byte("computeMixed")) {
			n++
		}
	}
	return n
}

// TestTenantLimiterConcurrent pounds one limiter from many goroutines with
// overlapping tenants so -race covers the refill/evict paths.
func TestTenantLimiterConcurrent(t *testing.T) {
	l := newTenantLimiter(100, 100, 8, new(obs.Counter))
	base := time.Unix(1_700_000_000, 0)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.allow(fmt.Sprintf("t%d", (w+i)%12), base.Add(time.Duration(i)*time.Millisecond))
			}
		}(w)
	}
	wg.Wait()
	if got := l.size(); got > 8 {
		t.Fatalf("limiter grew past cap: %d tenants", got)
	}
}
