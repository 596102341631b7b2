package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"
)

// TestOverloadShedding drives the daemon at 4× its admission capacity and
// checks that (a) excess load is shed with 429s, and (b) the p99 of admitted
// requests stays within 5× the uncontended p99 — i.e. shedding actually
// protects the served tail instead of letting queues soak it.
func TestOverloadShedding(t *testing.T) {
	if testing.Short() {
		t.Skip("loadgen experiment; skipped in -short")
	}
	const (
		maxInFlight = 4
		maxQueue    = 4
		serviceMS   = 20 // synthetic per-request service time via the delayms hook
	)
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = maxInFlight
		c.MaxQueue = maxQueue
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	waitFor(t, "server ready", func() bool { return s.Ready() })

	url := fmt.Sprintf("http://%s/v1/advise?app=Video&platform=aws&c=500&delayms=%d",
		ln.Addr().String(), serviceMS)
	// Warm the planner pool outside the measurement.
	if code, err := fetch(http.DefaultClient, url+"&i=warm"); err != nil || code != 200 {
		t.Fatalf("warmup: code %d err %v", code, err)
	}

	uncontended, err := RunLoadgen(LoadgenOptions{URL: url, Clients: 1, Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	if uncontended.OK != uncontended.Requests {
		t.Fatalf("uncontended run shed traffic: %+v", uncontended)
	}

	// Admission capacity is maxInFlight+maxQueue concurrent requests; drive
	// 4× that with closed-loop clients.
	capacity := maxInFlight + maxQueue
	overload, err := RunLoadgen(LoadgenOptions{URL: url, Clients: 4 * capacity, Requests: 600})
	if err != nil {
		t.Fatal(err)
	}
	if overload.Shed == 0 {
		t.Fatalf("no 429s under 4x overload: %+v", overload)
	}
	if overload.OK == 0 {
		t.Fatalf("no admitted requests under overload: %+v", overload)
	}
	if overload.Failed > 0 {
		t.Fatalf("%d transport failures under overload: %+v", overload.Failed, overload)
	}
	ratio := overload.Admitted.P99Sec / uncontended.Admitted.P99Sec
	const budget = 5.0
	if ratio > budget {
		t.Fatalf("admitted p99 degraded %.1fx under overload (uncontended %.4fs, overload %.4fs); budget %.0fx",
			ratio, uncontended.Admitted.P99Sec, overload.Admitted.P99Sec, budget)
	}
	// Rejections must be cheaper than service: the shed fast path never
	// waits on the queue or the planner. (Relative bound, so the check
	// holds under the race detector's uniform slowdown too.)
	if overload.Rejected.P99Sec > overload.Admitted.P99Sec {
		t.Fatalf("shed fast-path p99 %.4fs exceeds admitted p99 %.4fs",
			overload.Rejected.P99Sec, overload.Admitted.P99Sec)
	}
	t.Logf("uncontended p99 %.4fs; overload: ok=%d shed=%d unavailable=%d admitted p99 %.4fs (%.2fx), rejected p99 %.4fs",
		uncontended.Admitted.P99Sec, overload.OK, overload.Shed, overload.Unavailable,
		overload.Admitted.P99Sec, ratio, overload.Rejected.P99Sec)

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
