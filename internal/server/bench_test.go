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
		rec.Description = "propack serve overload experiment: closed-loop load generator (internal/server/loadgen.go) against the real daemon with synthetic 20ms service time (delayms test hook). 'uncontended' is 1 client; 'overload' is 4x admission capacity (MaxInFlight+MaxQueue) clients. Acceptance: excess load shed with 429s while admitted p99 stays within 5x uncontended p99. Regenerate: go test ./internal/server/ -run TestOverloadShedding -record"
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
// an on/off delta over the advise hot path, and checks it stays within the
// ISSUE budget: ≤10% of the bare request cost (with a 2 µs absolute floor so
// sub-microsecond noise on a fast machine cannot flake the build). With
// -record the measured delta is written into BENCH_SERVE.json's "telemetry"
// section.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark experiment; skipped in -short")
	}
	// Interleaved best-of-rounds: two sequential 1 s benchmark runs on a
	// shared CI box can disagree by 20% from frequency scaling and GC debt
	// alone, which would swamp the delta being measured. Alternating short
	// rounds and comparing the best round of each side cancels that noise.
	const path = "/v1/advise?app=Video&platform=aws&c=2000"
	newSrv := func(disable bool) *Server {
		s, err := New(Config{TenantRPS: -1, Seed: 1, DisableTelemetry: disable})
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
	bareSrv, instSrv := newSrv(true), newSrv(false)
	const iters, rounds = 2000, 8
	run(bareSrv, 50) // warm the planner pools outside the measurement
	run(instSrv, 50)
	bareNs, instNs := int64(1<<62), int64(1<<62)
	for r := 0; r < rounds; r++ {
		bareNs = min(bareNs, run(bareSrv, iters))
		instNs = min(instNs, run(instSrv, iters))
	}
	overheadNs := instNs - bareNs
	overheadPct := float64(overheadNs) / float64(bareNs) * 100
	const budgetPct, floorNs = 10.0, 2000
	pass := overheadNs <= floorNs || overheadPct <= budgetPct
	t.Logf("bare %d ns/op, instrumented %d ns/op, overhead %d ns/op (%.1f%%)",
		bareNs, instNs, overheadNs, overheadPct)
	if !pass && !raceEnabled { // the detector's instrumentation is not the telemetry's cost
		t.Errorf("telemetry overhead %.1f%% (%d ns/op) exceeds %g%% budget",
			overheadPct, overheadNs, budgetPct)
	}

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
