package server

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Request-path telemetry: the instrument middleware wrapped around every /v1
// route assigns a request ID, captures the response status, and on completion
// feeds four sinks —
//
//   - RED metrics: http_route_requests_total{route,code,tenant_class} and
//     http_route_seconds{route} in the registry (the only per-route series —
//     the guard chain itself counts just its rejections);
//   - the SLO tracker behind /slo (availability = no 5xx; latency judged
//     against the configured threshold);
//   - the guard chain's children of stage_seconds{stage}: limit, admit and
//     plan;
//   - optionally a Recorder (Config.Trace): one burst per request, labeled
//     with the request ID, carrying the guard-stage spans — the same typed
//     stream the simulator emits, so the existing JSONL/Chrome-trace
//     exporters render request traces unchanged;
//
// plus an optional structured access log line carrying the request ID.
//
// The label sets are deliberately tiny: route is one of four fixed names,
// code is an HTTP status, and tenant_class is "anon" or "keyed" — never the
// raw tenant key, which a client mints at will. The vector cardinality cap
// (obs.DefaultMaxSeries) backstops even that.
//
// The middleware rides the advise hot path (~8 µs/request), so it is
// shaped for cost: the 200-status counters and the latency histogram child
// are resolved once per route at wrap time, the span buffer is inline in
// the per-request state (no slice growth for the usual three spans), contiguous
// guard stages share clock reads, and the limiter reuses the resolved tenant.

// requestIDHeader is X-Request-ID as net/http canonicalizes it, so reading and
// echoing it never re-canonicalizes. Echoed on every response and accepted
// (sanitized) from clients so IDs propagate through call chains.
const requestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds accepted client-supplied request IDs.
const maxRequestIDLen = 64

// tenantClass collapses the unbounded tenant key space into two label
// values: callers presenting an identity vs. the shared anonymous pool.
func tenantClass(tenant string) string {
	if tenant == anonymousTenant {
		return "anon"
	}
	return "keyed"
}

// sanitizeRequestID accepts a client-supplied ID only when it is short and
// [0-9A-Za-z._-]: anything else (or empty) returns "", and the server mints
// its own. IDs land in logs and trace labels, so the alphabet is strict.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c == '.' || c == '_' || c == '-' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return ""
		}
	}
	return id
}

// requestTrace is the per-request telemetry state: a ResponseWriter wrapper
// capturing the status, plus the guard-stage span buffer. One struct, one
// allocation per request. It lives in the request context; a nil
// *requestTrace is a no-op on the span methods, so the handler chain needs
// no telemetry-enabled checks. A request is handled by one goroutine, so
// nothing here is synchronized.
type requestTrace struct {
	http.ResponseWriter
	code int

	id      string
	tenant  string
	start   time.Time
	clock   func() time.Time
	spans   []obs.Span
	spanBuf [4]obs.Span // inline storage: limit, admit, plan + one spare
}

func (rt *requestTrace) WriteHeader(code int) {
	if rt.code == 0 {
		rt.code = code
	}
	rt.ResponseWriter.WriteHeader(code)
}

func (rt *requestTrace) Write(b []byte) (int, error) {
	if rt.code == 0 {
		rt.code = http.StatusOK
	}
	return rt.ResponseWriter.Write(b)
}

// tenantOr is the tenant instrument resolved, or r's when telemetry is off.
func (rt *requestTrace) tenantOr(r *http.Request) string {
	if rt == nil {
		return tenantOf(r)
	}
	return rt.tenant
}

// origin returns the request's start time — the first span's natural start —
// without a clock read (zero when tracing is off; spanFrom ignores it).
func (rt *requestTrace) origin() time.Time {
	if rt == nil {
		return time.Time{}
	}
	return rt.start
}

// spanFrom records one completed guard stage, with times relative to the
// request's start (the obs convention: seconds since burst invocation), and
// returns the stage's end time so the next contiguous stage starts without
// another clock read.
func (rt *requestTrace) spanFrom(stage obs.Stage, from time.Time) time.Time {
	if rt == nil {
		return time.Time{}
	}
	now := rt.clock()
	rt.spans = append(rt.spans, obs.Span{
		Stage:    stage,
		StartSec: from.Sub(rt.start).Seconds(),
		EndSec:   now.Sub(rt.start).Seconds(),
	})
	return now
}

// tracePool recycles requestTrace structs (the spans' inline storage makes
// them ~300 B); a request releases its struct at the end of instrument, after
// the flush.
var tracePool = sync.Pool{New: func() any { return new(requestTrace) }}

// traceOf recovers the request's trace from the ResponseWriter the
// instrument middleware handed down (nil when telemetry is off). Riding the
// writer instead of a context value keeps the hot path free of the request
// clone and context allocation WithContext/WithValue would cost; the
// middleware is the innermost wrapper around endpoint, so the assertion is
// exact.
func traceOf(w http.ResponseWriter) *requestTrace {
	rt, _ := w.(*requestTrace)
	return rt
}

// telemetry is the server's request-telemetry state, built once in New.
type telemetry struct {
	reg    *obs.Registry
	red    *obs.CounterVec
	lat    *obs.HistogramVec
	slo    *obs.SLO
	trace  obs.Recorder
	access *slog.Logger
	clock  func() time.Time

	// stageHist pre-resolves the guard stages' stage_seconds children so
	// flush does no registry lookup per span.
	stageHist map[obs.Stage]*obs.Histogram

	// traceMu serializes burst flushes into the shared Recorder: a Recorder
	// groups spans by BeginBurst boundaries, so concurrent requests must not
	// interleave.
	traceMu sync.Mutex

	// idBase + idSeq mint request IDs: a per-process random prefix and a
	// counter, e.g. "f3a91c2e-42". Unique across restarts without the cost
	// of a random read per request.
	idBase string
	idSeq  atomic.Uint64
}

func newTelemetry(cfg Config, reg *obs.Registry, slo *obs.SLO) *telemetry {
	var buf [4]byte
	_, _ = rand.Read(buf[:])
	stages := reg.HistogramVec("stage_seconds", []string{"stage"}, nil)
	stageHist := map[obs.Stage]*obs.Histogram{}
	for _, st := range []obs.Stage{obs.StageLimit, obs.StageAdmit, obs.StagePlan} {
		stageHist[st] = stages.With(st.String())
	}
	return &telemetry{
		reg:       reg,
		red:       reg.CounterVec("http_route_requests_total", "route", "code", "tenant_class"),
		lat:       reg.HistogramVec("http_route_seconds", []string{"route"}, nil),
		slo:       slo,
		trace:     cfg.Trace,
		access:    cfg.AccessLog,
		clock:     cfg.Clock,
		idBase:    hex.EncodeToString(buf[:]),
		stageHist: stageHist,
	}
}

// nextID mints a server-side request ID.
func (t *telemetry) nextID() string {
	buf := make([]byte, 0, 24)
	buf = append(buf, t.idBase...)
	buf = append(buf, '-')
	buf = strconv.AppendUint(buf, t.idSeq.Add(1), 10)
	return string(buf)
}

// instrument wraps a /v1 handler with request-ID assignment, status capture,
// and completion-time telemetry fan-out.
func (t *telemetry) instrument(route string, next http.Handler) http.Handler {
	// The overwhelmingly common RED outcomes, resolved once per route.
	okAnon := t.red.With(route, "200", "anon")
	okKeyed := t.red.With(route, "200", "keyed")
	latH := t.lat.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.clock()
		id := sanitizeRequestID(headerValue(r.Header, requestIDHeader))
		if id == "" {
			id = t.nextID()
		}
		w.Header()[requestIDHeader] = []string{id}

		rt := tracePool.Get().(*requestTrace)
		*rt = requestTrace{ResponseWriter: w, id: id, tenant: tenantOf(r), start: start, clock: t.clock}
		rt.spans = rt.spanBuf[:0]
		next.ServeHTTP(rt, r)

		code := rt.code
		if code == 0 {
			code = http.StatusOK
		}
		end := t.clock()
		durSec := end.Sub(start).Seconds()
		class := tenantClass(rt.tenant)
		switch {
		case code == http.StatusOK && class == "anon":
			okAnon.Inc()
		case code == http.StatusOK:
			okKeyed.Inc()
		default:
			t.red.With(route, strconv.Itoa(code), class).Inc()
		}
		latH.Observe(durSec)
		t.slo.RecordAt(end, code < 500, durSec)
		t.flush(rt)
		rt.ResponseWriter = nil // don't pin the response across pool reuse
		tracePool.Put(rt)
		if t.access != nil {
			t.access.LogAttrs(r.Context(), slog.LevelInfo, "access",
				slog.String("request_id", id),
				slog.String("route", route),
				slog.Int("code", code),
				slog.String("tenant_class", class),
				slog.Float64("dur_sec", durSec),
			)
		}
	})
}

// flush feeds the request's guard-stage spans into the per-stage latency
// histograms and, when a trace Recorder is configured, emits them as one
// contiguous burst labeled with the request ID.
func (t *telemetry) flush(rt *requestTrace) {
	for _, sp := range rt.spans {
		if h := t.stageHist[sp.Stage]; h != nil {
			h.Observe(sp.DurSec())
		}
	}
	if t.trace == nil {
		return
	}
	t.traceMu.Lock()
	defer t.traceMu.Unlock()
	t.trace.BeginBurst(obs.BurstInfo{
		Platform: "serve", Label: rt.id, Functions: 1, Degree: 1, Instances: 1,
	})
	for _, sp := range rt.spans {
		t.trace.Span(sp)
	}
}
