package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServeConcurrentStress hammers every endpoint from many goroutines at
// once. Its name contains "Concurrent" so CI's race-stress job
// (go test -race -run Concurrent) picks it up: the point is to drive the
// admission semaphore, tenant limiter, coalescer and planner pool
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
				// Half the traffic is unique (nonce), half coalescable.
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

// TestFlightGroupConcurrentKeys drives the coalescer with many goroutines
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
				v, err, _ := g.Do(t.Context(), key, func() (any, error) {
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
