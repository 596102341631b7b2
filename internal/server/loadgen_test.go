package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Closed-loop load generator for the daemon: N clients each keep exactly
// one request in flight, so offered load is clients/latency and overload is
// expressed as clients ≫ admission capacity. It is the harness of
// TestOverloadShedding (shed requests must get fast 429s while admitted
// requests keep a sane tail).

// LoadgenOptions configures one closed-loop run.
type LoadgenOptions struct {
	// URL is the target endpoint including query parameters; the generator
	// appends a per-request nonce (&i=<n>) so identical requests do not
	// coalesce and each one exercises the full path.
	URL string
	// Clients is the closed-loop concurrency.
	Clients int
	// Requests is the total request budget across clients.
	Requests int
	// Client overrides the HTTP client (nil: 30 s timeout, default transport).
	Client *http.Client
}

// LatencySummary is the tail of one outcome class.
type LatencySummary struct {
	N      int
	P99Sec float64
}

func summarize(durs []float64) LatencySummary {
	if len(durs) == 0 {
		return LatencySummary{}
	}
	sort.Float64s(durs)
	return LatencySummary{N: len(durs), P99Sec: stats.QuantileSorted(durs, 99)}
}

// LoadgenResult is one closed-loop run's outcome.
type LoadgenResult struct {
	Requests    int
	OK          int
	Shed        int // 429 (admission or rate limit)
	Unavailable int // 503 (queue timeout, breaker, drain)
	Failed      int // transport errors and other statuses
	// Admitted summarizes latencies of 200s only — the tail that admission
	// control promises to protect. Rejected summarizes the 429/503 fast
	// path, which must stay cheap for shedding to mean anything.
	Admitted LatencySummary
	Rejected LatencySummary
}

// RunLoadgen drives the closed loop and aggregates outcomes.
func RunLoadgen(opts LoadgenOptions) (LoadgenResult, error) {
	if opts.Clients < 1 || opts.Requests < 1 {
		return LoadgenResult{}, fmt.Errorf("server: loadgen needs clients ≥ 1 and requests ≥ 1")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		admitted []float64
		rejected []float64
		res      LoadgenResult
	)
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(opts.Requests) {
					return
				}
				t0 := time.Now()
				status, err := fetch(client, fmt.Sprintf("%s&i=%d", opts.URL, i))
				dur := time.Since(t0).Seconds()
				mu.Lock()
				switch {
				case err != nil:
					res.Failed++
				case status == http.StatusOK:
					res.OK++
					admitted = append(admitted, dur)
				case status == http.StatusTooManyRequests:
					res.Shed++
					rejected = append(rejected, dur)
				case status == http.StatusServiceUnavailable:
					res.Unavailable++
					rejected = append(rejected, dur)
				default:
					res.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Requests = opts.Requests
	res.Admitted = summarize(admitted)
	res.Rejected = summarize(rejected)
	return res, nil
}

func fetch(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}
