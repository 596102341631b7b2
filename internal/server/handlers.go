package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/workload"
)

// apiError is an error with an HTTP status; anything else surfacing from a
// compute function is a 500. Only 5xx outcomes feed the circuit breaker —
// a client's typo must never open the circuit for everyone.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// toAPIError normalizes any compute error for the response writer.
func toAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &apiError{status: http.StatusGatewayTimeout, msg: "request deadline exceeded"}
	}
	if errors.Is(err, context.Canceled) {
		return &apiError{status: 499, msg: "client cancelled"} // nginx convention
	}
	return &apiError{status: http.StatusInternalServerError, msg: err.Error()}
}

// writeJSON serves the cold routes (/healthz, /readyz, /slo).
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}

func writeAPIError(w http.ResponseWriter, ae *apiError) {
	if ae.retryAfter > 0 {
		secs := int64(math.Ceil(ae.retryAfter.Seconds()))
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	e := encPool.Get().(*jsonEnc)
	e.reset()
	e.open("", '{')
	e.str("error", ae.msg)
	e.end('}')
	e.writeTo(w, ae.status)
	encPool.Put(e)
}

// computeFn appends an endpoint's response body to e. It runs under the
// request deadline, behind admission control and the breaker, possibly
// coalesced with identical concurrent requests.
type computeFn func(ctx context.Context, q *params, e *jsonEnc) error

// endpoint wraps a compute function in the full robustness chain:
// panic recovery → rate limit → admission → deadline → breaker →
// coalescing → compute, with every decision surfaced in the registry.
// When the telemetry middleware is active, each guard stage also emits a
// span into the request's trace (limit → admit → plan-or-coalesce).
func (s *Server) endpoint(name string, compute computeFn) http.Handler {
	// Every counter the request path touches, resolved once: a request never
	// looks a name up, and the `# TYPE` set is complete before the first scrape
	// (a family list that depends on which failures have fired is miserable to
	// alert on; the e2e golden pins it).
	var (
		requests        = s.reg.Counter("http_requests_total")
		rateLimited     = s.reg.Counter("http_ratelimited_total")
		shed            = s.reg.Counter("http_shed_total")
		queueTimeout    = s.reg.Counter("http_queue_timeout_total")
		coalesced       = s.reg.Counter("http_coalesced_total")
		breakerRejected = s.reg.Counter("breaker_rejected_total")
		panics          = s.reg.Counter("http_panics_total")
	)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				// The localfaas pattern: a panic fails only this request,
				// never the daemon.
				panics.Inc()
				s.log.Error("handler panic", "endpoint", name, "panic", fmt.Sprint(p))
				writeAPIError(w, &apiError{status: http.StatusInternalServerError, msg: "internal error"})
			}
		}()
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeAPIError(w, &apiError{status: http.StatusMethodNotAllowed, msg: "use GET"})
			return
		}
		requests.Inc()
		rt := traceOf(w)

		// Per-tenant token bucket (the tenant already resolved by telemetry).
		tenant := rt.tenantOr(r)
		mark := rt.origin()
		ok, retryAfter := s.tenants.allow(tenant, s.cfg.Clock())
		mark = rt.spanFrom(obs.StageLimit, mark)
		if !ok {
			rateLimited.Inc()
			s.log.Debug("rate limited", "tenant", tenant, "endpoint", name)
			writeAPIError(w, &apiError{
				status: http.StatusTooManyRequests, retryAfter: retryAfter,
				msg: "tenant rate limit exceeded",
			})
			return
		}

		// Admission: bounded in-flight work, bounded queue, honest shedding.
		release, st := s.adm.acquire(r.Context())
		mark = rt.spanFrom(obs.StageAdmit, mark)
		switch st {
		case admitShed:
			shed.Inc()
			writeAPIError(w, &apiError{
				status: http.StatusTooManyRequests, retryAfter: s.cfg.ShedRetryAfter,
				msg: "server overloaded, request shed",
			})
			return
		case admitTimeout:
			queueTimeout.Inc()
			writeAPIError(w, &apiError{status: http.StatusServiceUnavailable, msg: "queued past deadline"})
			return
		}
		defer release()

		// Circuit breaker on the planner path.
		now := s.cfg.Clock()
		if !s.breaker.Allow(now) {
			breakerRejected.Inc()
			writeAPIError(w, &apiError{
				status: http.StatusServiceUnavailable, retryAfter: s.breaker.RetryAfter(now),
				msg: "planner circuit open",
			})
			return
		}

		// The query, parsed once; its canonical form keys the coalescer.
		q := parseParams(r.URL.RawQuery)
		defer q.release()
		q.key = q.appendCanonical(append(append(q.key[:0], name...), '?'))

		// Per-request deadline, propagated through the compute path.
		start := time.Now()
		ctx := &lazyDeadline{Context: r.Context(), deadline: start.Add(s.cfg.RequestTimeout)}
		defer ctx.cancel()

		// The leader encodes into its own pooled buffer; a follower gets a
		// private copy (detachBody), so the buffer is free once written.
		e := encPool.Get().(*jsonEnc)
		defer encPool.Put(e)
		val, err, shared := s.flights.Do(ctx, string(q.key), func() (any, error) {
			if s.cfg.TestHooks {
				if err := s.testHooks(ctx, q); err != nil {
					return nil, err
				}
			}
			e.reset()
			if err := compute(ctx, q, e); err != nil {
				return nil, err
			}
			return e, nil
		})
		dur := time.Since(start).Seconds()
		if shared {
			// A follower spent the interval waiting on the leader's
			// computation, not computing.
			rt.spanFrom(obs.StageCoalesce, mark)
			coalesced.Inc()
		} else {
			rt.spanFrom(obs.StagePlan, mark)
		}
		var ae *apiError
		if err != nil {
			ae = toAPIError(err)
		}
		s.breaker.Record(s.cfg.Clock(), dur, ae != nil && ae.status >= 500)
		if ae != nil {
			writeAPIError(w, ae)
			return
		}
		val.(*jsonEnc).writeTo(w, http.StatusOK)
	})
}

// testHooks honors the e2e/load-test query parameters when Config.TestHooks
// is set: delayms holds the request in flight, panic=1 crashes the handler.
func (s *Server) testHooks(ctx context.Context, q *params) error {
	if q.Get("panic") == "1" {
		panic("test hook panic")
	}
	if d := q.Get("delayms"); d != "" {
		ms, err := strconv.Atoi(d)
		if err != nil || ms < 0 {
			return badRequest("bad delayms %q", d)
		}
		select {
		case <-time.After(time.Duration(ms) * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// --- Parameter parsing -------------------------------------------------------

func intParam(q *params, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badRequest("bad %s %q", name, v)
	}
	return n, nil
}

func floatParam(q *params, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, badRequest("bad %s %q", name, v)
	}
	return f, nil
}

// maxGridSizes bounds a /v1/joint grid: every size is a full interference
// probe train run on the request path. The default grid has four; 16
// leaves room for a finer sweep and keeps the largest request a few tens of
// milliseconds of simulation, well inside RequestTimeout.
const maxGridSizes = 16

// sizesParam reads sizes, a comma-separated memory grid in MB (e.g.
// sizes=2048,4096,10240). Empty means the platform default grid; order and
// positivity are validated downstream by the grid builder with typed
// errors.
func sizesParam(q *params) ([]float64, error) {
	v := q.Get("sizes")
	if v == "" {
		return nil, nil
	}
	if strings.Count(v, ",") >= maxGridSizes {
		return nil, badRequest("sizes lists more than %d memory sizes, the most /v1/joint profiles for one grid", maxGridSizes)
	}
	parts := strings.Split(v, ",")
	sizes := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, badRequest("bad sizes entry %q", p)
		}
		sizes = append(sizes, f)
	}
	return sizes, nil
}

// weightsParam reads ws (service weight; expense is 1−ws).
func weightsParam(q *params) (core.Weights, error) {
	ws, err := floatParam(q, "ws", 0.5)
	if err != nil {
		return core.Weights{}, err
	}
	if ws < 0 || ws > 1 {
		return core.Weights{}, badRequest("ws %g outside [0,1]", ws)
	}
	return core.Weights{Service: ws, Expense: 1 - ws}, nil
}

// ceilDiv is the instance count ⌈c/degree⌉, safe for c up to MaxInt.
func ceilDiv(c, degree int) int {
	if c < 1 {
		return 0
	}
	return (c-1)/degree + 1
}

// --- Response bodies ---------------------------------------------------------
//
// A compute function appends its body as it goes: the member names and order
// below are the wire format. The json-tagged structs that used to define it
// live on in jsonenc_test.go, as the oracle every body is held identical to.

// openEcho starts a single-application body with the request it answers.
func openEcho(e *jsonEnc, app, platform string, c int) {
	e.open("", '{')
	e.str("app", app)
	e.str("platform", platform)
	e.int("c", c)
}

func appendWeights(e *jsonEnc, w core.Weights) {
	e.float("w_service", w.Service)
	e.float("w_expense", w.Expense)
}

func appendPlan(e *jsonEnc, p core.Plan) {
	e.open("plan", '{')
	e.int("degree", p.Degree)
	e.int("instances", ceilDiv(p.Concurrency, p.Degree))
	e.float("predicted_service_sec", p.PredictedServiceSec)
	e.float("predicted_expense_usd", p.PredictedExpenseUSD)
	e.float("baseline_service_sec", p.BaselineServiceSec)
	e.float("baseline_expense_usd", p.BaselineExpenseUSD)
	e.end('}')
}

// --- Compute functions -------------------------------------------------------

// computeAdvise is GET /v1/advise?app=&platform=&c=&ws= — the cached
// equivalent of `propack advise`.
func (s *Server) computeAdvise(ctx context.Context, q *params, e *jsonEnc) error {
	app, plat := q.Get("app"), q.Get("platform")
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return err
	}
	if c < 1 {
		return badRequest("c %d < 1", c)
	}
	w, err := weightsParam(q)
	if err != nil {
		return err
	}
	pe, err := s.pool.get(ctx, plat, app, nil)
	if err != nil {
		return err
	}
	plan, err := pe.planner.PlanFor(c, w)
	if err != nil {
		return badRequest("%v", err)
	}
	lo, hi, err := pe.planner.DegreeRange(c, w, 0.02)
	if err != nil {
		return badRequest("%v", err)
	}
	openEcho(e, app, pe.platformName, c)
	appendWeights(e, w)
	e.int("max_degree", pe.planner.Models().MaxDegree)
	appendPlan(e, plan)
	e.int("degree_lo", lo)
	e.int("degree_hi", hi)
	e.float("model_overhead_usd", pe.overhead.TotalUSD())
	e.end('}')
	return nil
}

// computeQoS is GET /v1/qos?app=&platform=&c=&qos= — tail-latency-bounded
// planning (Sec. 2.6).
func (s *Server) computeQoS(ctx context.Context, q *params, e *jsonEnc) error {
	app, plat := q.Get("app"), q.Get("platform")
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return err
	}
	qos, err := floatParam(q, "qos", 0)
	if err != nil {
		return err
	}
	if qos <= 0 {
		return badRequest("qos must be a positive p95 bound in seconds")
	}
	pe, err := s.pool.get(ctx, plat, app, nil)
	if err != nil {
		return err
	}
	plan, w, err := pe.planner.QoSPlan(c, qos, core.QoSOptions{})
	if err != nil {
		return badRequest("%v", err)
	}
	openEcho(e, app, pe.platformName, c)
	e.float("qos_sec", qos)
	e.float("tail_quantile", 95)
	appendWeights(e, w)
	appendPlan(e, plan)
	e.end('}')
	return nil
}

// computeJoint is GET /v1/joint?app=&platform=&c=&ws=&sizes=&qos= — joint
// degree × memory planning over a memory-size grid. With qos set, the
// objective weights come from the Sec. 2.6 search over the whole grid;
// otherwise ws applies directly. sizes defaults to quarter steps of the
// platform's instance memory.
func (s *Server) computeJoint(ctx context.Context, q *params, e *jsonEnc) error {
	app, plat := q.Get("app"), q.Get("platform")
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return err
	}
	if c < 1 {
		return badRequest("c %d < 1", c)
	}
	w, err := weightsParam(q)
	if err != nil {
		return err
	}
	qos, err := floatParam(q, "qos", 0)
	if err != nil {
		return err
	}
	if qos < 0 {
		return badRequest("qos must be a positive p95 bound in seconds")
	}
	sizes, err := sizesParam(q)
	if err != nil {
		return err
	}
	if len(sizes) == 0 {
		cfg, err := PlatformByName(plat)
		if err != nil {
			return badRequest("%v", err)
		}
		sizes = defaultGridSizes(cfg.Shape.MemoryMB)
	}
	pe, err := s.pool.get(ctx, plat, app, sizes)
	if err != nil {
		return err
	}
	var plan core.JointPlan
	if qos > 0 {
		plan, w, err = pe.planner.QoSPlanJoint(c, qos, core.QoSOptions{})
	} else {
		plan, err = pe.planner.PlanJointFor(c, w)
	}
	if err != nil {
		return badRequest("%v", err)
	}
	maxDegree := 0
	grid, _ := pe.planner.Grid()
	for _, sm := range grid.Sizes {
		if sm.MemMB == plan.MemMB {
			maxDegree = sm.Models.MaxDegree
		}
	}
	openEcho(e, app, pe.platformName, c)
	appendWeights(e, w)
	if qos > 0 { // a weighted request carries neither member
		e.float("qos_sec", qos)
		e.float("tail_quantile", 95)
	}
	e.floats("sizes_mb", pe.sizesMB)
	e.float("mem_mb", plan.MemMB)
	e.int("max_degree", maxDegree)
	appendPlan(e, plan.Plan)
	e.float("model_overhead_usd", pe.overhead.TotalUSD())
	e.end('}')
	return nil
}

// computePlan is GET /v1/plan?app=&platform=&c=&degree= — model predictions
// at a caller-fixed packing degree, straight off the cached DegreeTable.
func (s *Server) computePlan(ctx context.Context, q *params, e *jsonEnc) error {
	app, plat := q.Get("app"), q.Get("platform")
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return err
	}
	degree, err := intParam(q, "degree", 1)
	if err != nil {
		return err
	}
	pe, err := s.pool.get(ctx, plat, app, nil)
	if err != nil {
		return err
	}
	models := pe.planner.Models()
	if degree < 1 || degree > models.MaxDegree {
		return badRequest("degree %d outside [1,%d]", degree, models.MaxDegree)
	}
	t, err := pe.planner.Table(c)
	if err != nil {
		return badRequest("%v", err)
	}
	openEcho(e, app, pe.platformName, c)
	e.int("degree", degree)
	e.int("max_degree", models.MaxDegree)
	e.int("instances", ceilDiv(c, degree))
	e.float("et_sec", models.ET.At(degree))
	e.float("service_sec", t.ServiceTime(degree))
	e.float("p95_service_sec", t.ServiceTimeQuantile(degree, 95))
	e.float("expense_usd", t.Expense(degree))
	e.end('}')
	return nil
}

// maxMixedFunctions bounds Σ count on /v1/mixed: the mixed planner's cost grows
// as entries × Σ count² and it does not watch its context, so an unbounded
// request holds an admission slot long past RequestTimeout. 20 000 is the top
// of the concurrency range the other routes are exercised over.
const maxMixedFunctions = 20000

// computeMixed is GET /v1/mixed?app=Name:count&app=Name:count&platform=&ws=
// — plan-only heterogeneous packing (the Sec. 5 extension).
func (s *Server) computeMixed(ctx context.Context, q *params, e *jsonEnc) error {
	plat := q.Get("platform")
	w, err := weightsParam(q)
	if err != nil {
		return err
	}
	specs := q.All("app")
	if len(specs) < 2 || len(specs) > len(workload.All()) {
		return badRequest("need two to %d app=Name:count parameters, one per application", len(workload.All()))
	}
	cfg, err := PlatformByName(plat)
	if err != nil {
		return badRequest("%v", err)
	}
	apps := make([]orchestrator.MixedApp, len(specs))
	total := 0
	for i, p := range specs {
		name, countStr, ok := strings.Cut(p.val, ":")
		if !ok {
			return badRequest("bad app spec %q (want Name:count)", p.val)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return badRequest("bad app count in %q", p.val)
		}
		if count > maxMixedFunctions-total {
			return badRequest("app counts sum past %d, the most functions /v1/mixed plans in one request", maxMixedFunctions)
		}
		total += count
		wl, err := workload.ByName(name)
		if err != nil {
			return badRequest("%v", err)
		}
		apps[i] = orchestrator.MixedApp{Workload: wl, Count: count}
	}
	plan, overhead, err := orchestrator.PlanMixedJob(cfg, apps, w, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("mixed planning: %w", err)
	}
	e.open("", '{')
	e.str("platform", cfg.Name)
	e.open("apps", '[')
	for _, a := range apps {
		e.open("", '{')
		e.str("app", a.Workload.Name())
		e.int("count", a.Count)
		e.end('}')
	}
	e.end(']')
	appendWeights(e, w)
	e.str("strategy", plan.Strategy)
	e.int("instances", plan.Instances())
	e.float("predicted_service_sec", plan.PredictedServiceSec)
	e.float("predicted_expense_usd", plan.PredictedExpenseUSD)
	// Identical consecutive bin compositions are run-length encoded — a
	// 500-instance plan is usually two or three distinct compositions, and
	// the response stays bounded no matter the concurrency.
	e.open("bins", '[')
	for bins := plan.BinCounts; len(bins) > 0; {
		n := 1
		for n < len(bins) && slices.Equal(bins[0], bins[n]) {
			n++
		}
		e.open("", '{')
		e.open("counts", '[')
		for _, count := range bins[0] {
			e.int("", count)
		}
		e.end(']')
		e.int("n", n)
		e.end('}')
		bins = bins[n:]
	}
	e.end(']')
	e.float("model_overhead_usd", overhead.TotalUSD())
	e.end('}')
	return nil
}
