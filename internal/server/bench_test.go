package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// -record regenerates BENCH_SERVE.json at the repo root from this run's
// overload experiment (same convention as the goldens' -update flag):
//
//	go test ./internal/server/ -run TestOverloadShedding -record
var record = flag.Bool("record", false, "rewrite BENCH_SERVE.json from this run")

// --- Direct handler benches -------------------------------------------------

func benchEndpoint(b *testing.B, path string) {
	b.Helper()
	benchEndpointCfg(b, path, Config{TenantRPS: -1, Seed: 1})
}

func benchEndpointCfg(b *testing.B, path string, cfg Config) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the planner pool so iterations measure the serving path, not the
	// one-time model build.
	warm := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, warm)
	if rr.Code != http.StatusOK {
		b.Fatalf("warmup %s: status %d: %s", path, rr.Code, rr.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", fmt.Sprintf("%s&i=%d", path, i), nil)
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
}

func BenchmarkServeAdvise(b *testing.B) {
	benchEndpoint(b, "/v1/advise?app=Video&platform=aws&c=2000")
}

// BenchmarkServeAdviseBare is the same path with the per-request telemetry
// middleware stripped — the A side of the telemetry-overhead delta that
// TestTelemetryOverhead records into BENCH_SERVE.json.
func BenchmarkServeAdviseBare(b *testing.B) {
	benchEndpointCfg(b, "/v1/advise?app=Video&platform=aws&c=2000",
		Config{TenantRPS: -1, Seed: 1, DisableTelemetry: true})
}

func BenchmarkServeQoS(b *testing.B) {
	benchEndpoint(b, "/v1/qos?app=Video&platform=aws&c=2000&qos=200")
}

func BenchmarkServeMixed(b *testing.B) {
	benchEndpoint(b, "/v1/mixed?app=Video:60&app=Smith-Waterman:60&platform=aws")
}

// --- Overload acceptance experiment ----------------------------------------

// benchServeRecord is the BENCH_SERVE.json schema. The overload experiment
// and the telemetry-overhead experiment each rewrite only their own section
// under -record, preserving the other's.
type benchServeRecord struct {
	Description string                   `json:"description"`
	Date        string                   `json:"date"`
	Config      benchServeConfig         `json:"config"`
	Uncontended LoadgenResult            `json:"uncontended"`
	Overload    LoadgenResult            `json:"overload"`
	Criteria    benchServeCriteria       `json:"criteria"`
	Telemetry   *telemetryOverheadRecord `json:"telemetry,omitempty"`
}

// telemetryOverheadRecord is the ISSUE acceptance delta: BenchmarkServeAdvise
// with the instrumentation middleware on vs. off.
type telemetryOverheadRecord struct {
	Description         string  `json:"description"`
	Date                string  `json:"date"`
	BareNsPerOp         int64   `json:"bare_ns_per_op"`
	InstrumentedNsPerOp int64   `json:"instrumented_ns_per_op"`
	OverheadNsPerOp     int64   `json:"overhead_ns_per_op"`
	OverheadPct         float64 `json:"overhead_pct"`
	BudgetPct           float64 `json:"budget_pct"`
	Pass                bool    `json:"pass"`
}

// benchServePath is the repo-root location of BENCH_SERVE.json relative to
// this package.
const benchServePath = "../../BENCH_SERVE.json"

// loadBenchServeRecord reads the current BENCH_SERVE.json (zero record if
// absent), so -record writers preserve the sections they don't own.
func loadBenchServeRecord(t *testing.T) benchServeRecord {
	t.Helper()
	var rec benchServeRecord
	buf, err := os.ReadFile(benchServePath)
	if err != nil {
		return rec
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatalf("existing BENCH_SERVE.json unreadable: %v", err)
	}
	return rec
}

func writeBenchServeRecord(t *testing.T, rec benchServeRecord) {
	t.Helper()
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchServePath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_SERVE.json")
}

type benchServeConfig struct {
	MaxInFlight  int     `json:"max_in_flight"`
	MaxQueue     int     `json:"max_queue"`
	ServiceMS    int     `json:"synthetic_service_ms"`
	OverloadMult float64 `json:"overload_multiplier"`
}

type benchServeCriteria struct {
	ShedGot429        bool    `json:"shed_got_429"`
	AdmittedP99Ratio  float64 `json:"admitted_p99_ratio"`
	AdmittedP99Within float64 `json:"admitted_p99_budget"`
	Pass              bool    `json:"pass"`
}

// TestOverloadShedding is the ISSUE acceptance experiment: drive the daemon
// at ≥4× its admission capacity and check that (a) excess load is shed with
// 429s, and (b) the p99 of admitted requests stays within 5× the
// uncontended p99 — i.e. shedding actually protects the served tail instead
// of letting queues soak it. With -record the measured numbers are written
// to BENCH_SERVE.json.
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

	if *record {
		rec := loadBenchServeRecord(t)
		rec.Description = "propack serve overload experiment: closed-loop load generator (internal/server/loadgen_test.go) against the real daemon with synthetic 20ms service time (delayms test hook). 'uncontended' is 1 client; 'overload' is 4x admission capacity (MaxInFlight+MaxQueue) clients. Acceptance: excess load shed with 429s while admitted p99 stays within 5x uncontended p99. Regenerate: go test ./internal/server/ -run TestOverloadShedding -record"
		rec.Date = time.Now().Format("2006-01-02")
		rec.Config = benchServeConfig{
			MaxInFlight: maxInFlight, MaxQueue: maxQueue,
			ServiceMS: serviceMS, OverloadMult: 4,
		}
		rec.Uncontended = uncontended
		rec.Overload = overload
		rec.Criteria = benchServeCriteria{
			ShedGot429:        overload.Shed > 0,
			AdmittedP99Ratio:  ratio,
			AdmittedP99Within: budget,
			Pass:              overload.Shed > 0 && ratio <= budget,
		}
		writeBenchServeRecord(t, rec)
	}
}

// --- Telemetry overhead experiment ------------------------------------------

// TestTelemetryOverhead measures the per-request cost of the telemetry
// middleware (request IDs, RED vectors, SLO accounting, stage histograms) as
// an on/off delta over the advise hot path. What it gates on repeats: the
// objects allocated and the clock reads made per request, instrumented minus
// bare — the two things the middleware's cost is made of, and exact on any
// machine however loaded. The wall-clock delta is still measured, as the
// median of paired per-round ratios (a neighbour slows both halves of a
// round), logged, and with -record written into BENCH_SERVE.json's
// "telemetry" section against the ISSUE budget (≤ 10 % of the bare request,
// 2 µs floor) — but it is not asserted: two global minima taken while a
// CPU-heavy package ran beside this one read 22.5 % once, and the benchmark's
// server.telemetry_overhead_pct carries the timed number release to release.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark experiment; skipped in -short")
	}
	const path = "/v1/advise?app=Video&platform=aws&c=2000"
	var bareReads, instReads atomic.Int64
	newSrv := func(disable bool, reads *atomic.Int64) *Server {
		clock := func() time.Time { reads.Add(1); return time.Now() }
		s, err := New(Config{TenantRPS: -1, Seed: 1, DisableTelemetry: disable, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(s *Server, iters int) int64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			req := httptest.NewRequest("GET", fmt.Sprintf("%s&i=%d", path, i), nil)
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
			}
		}
		return time.Since(start).Nanoseconds() / int64(iters)
	}
	bareSrv, instSrv := newSrv(true, &bareReads), newSrv(false, &instReads)
	const iters, rounds = 2000, 8
	run(bareSrv, 50) // warm the planner pools outside the measurement
	run(instSrv, 50)

	// The gate: counts per request on one reused request and writer, so the
	// only objects and clock reads are the server's own.
	perRequest := func(s *Server, reads *atomic.Int64) (allocs, clockReads float64) {
		req := httptest.NewRequest("GET", path+"&i=gate", nil)
		w := &bareWriter{h: http.Header{}}
		h := s.Handler()
		serve := func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		}
		serve()
		const runs = 200
		before := reads.Load()
		allocs = testing.AllocsPerRun(runs, serve)
		return allocs, float64(reads.Load()-before) / (runs + 1) // AllocsPerRun warms up once
	}
	bareAllocs, bareClock := perRequest(bareSrv, &bareReads)
	instAllocs, instClock := perRequest(instSrv, &instReads)
	t.Logf("per request: bare %.1f objects / %.1f clock reads, instrumented %.1f / %.1f",
		bareAllocs, bareClock, instAllocs, instClock)
	// As measured: the request's start and end and one read closing each of the
	// three guard stages; two objects.
	const allocBudget, clockBudget = 2, 5
	if d := instClock - bareClock; d > clockBudget {
		t.Errorf("telemetry reads the clock %.1f more times per request, budget %d", d, clockBudget)
	}
	if d := instAllocs - bareAllocs; d > allocBudget && !raceEnabled { // sync.Pool drops items under the detector
		t.Errorf("telemetry allocates %.1f more objects per request, budget %d", d, allocBudget)
	}

	// The timed number: alternating short rounds, each side's best round for
	// the absolute figures, the median paired ratio for the percentage.
	bareNs, instNs := int64(1<<62), int64(1<<62)
	ratios := make([]float64, rounds)
	for r := range ratios {
		b, i := run(bareSrv, iters), run(instSrv, iters)
		bareNs, instNs = min(bareNs, b), min(instNs, i)
		ratios[r] = float64(i) / float64(b)
	}
	sort.Float64s(ratios)
	overheadPct := ((ratios[rounds/2-1]+ratios[rounds/2])/2 - 1) * 100
	overheadNs := int64(overheadPct / 100 * float64(bareNs))
	const budgetPct, floorNs = 10.0, 2000
	pass := overheadNs <= floorNs || overheadPct <= budgetPct
	t.Logf("bare %d ns/op, instrumented %d ns/op at best; median paired overhead %.1f%% (≈ %d ns/op), timed budget met: %v",
		bareNs, instNs, overheadPct, overheadNs, pass)

	if *record {
		rec := loadBenchServeRecord(t)
		rec.Telemetry = &telemetryOverheadRecord{
			Description:         "Per-request telemetry overhead: BenchmarkServeAdvise (advise hot path, warm planner pool) with the instrumentation middleware on vs. DisableTelemetry. Overhead covers request-ID assignment, RED counter/histogram vectors, SLO accounting, and guard-stage span capture. Budget: <=10% of the bare request cost or 2 us, whichever is larger. Regenerate: go test ./internal/server/ -run TestTelemetryOverhead -record",
			Date:                time.Now().Format("2006-01-02"),
			BareNsPerOp:         bareNs,
			InstrumentedNsPerOp: instNs,
			OverheadNsPerOp:     overheadNs,
			OverheadPct:         overheadPct,
			BudgetPct:           budgetPct,
			Pass:                pass,
		}
		writeBenchServeRecord(t, rec)
	}
}
