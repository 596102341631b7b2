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
// compute function is a 500.
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
// request deadline, behind admission control.
type computeFn func(ctx context.Context, q *params, e *jsonEnc) error

// endpoint wraps a compute function in the full robustness chain:
// panic recovery → rate limit → admission → deadline → compute, with every
// decision surfaced in the registry.
// When the telemetry middleware is active, each guard stage also emits a
// span into the request's trace (limit → admit → plan).
func (s *Server) endpoint(name string, compute computeFn) http.Handler {
	// Every counter the request path touches, resolved once: a request never
	// looks a name up, and the `# TYPE` set is complete before the first scrape
	// (a family list that depends on which failures have fired is miserable to
	// alert on; the e2e golden pins it).
	var (
		rateLimited  = s.reg.Counter("http_ratelimited_total")
		shed         = s.reg.Counter("http_shed_total")
		queueTimeout = s.reg.Counter("http_queue_timeout_total")
		panics       = s.reg.Counter("http_panics_total")
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
				status: http.StatusTooManyRequests, retryAfter: shedRetryAfter,
				msg: "server overloaded, request shed",
			})
			return
		case admitTimeout:
			queueTimeout.Inc()
			writeAPIError(w, &apiError{status: http.StatusServiceUnavailable, msg: "queued past deadline"})
			return
		}
		defer release()

		q := parseParams(r.URL.RawQuery)
		defer q.release()

		// Per-request deadline, propagated through the compute path.
		ctx := &lazyDeadline{Context: r.Context(), deadline: time.Now().Add(s.cfg.RequestTimeout)}
		defer ctx.cancel()

		e := encPool.Get().(*jsonEnc)
		defer encPool.Put(e)
		e.reset()
		var err error
		if s.cfg.TestHooks {
			err = s.testHooks(ctx, q)
		}
		if err == nil {
			err = compute(ctx, q, e)
		}
		rt.spanFrom(obs.StagePlan, mark)
		if err != nil {
			writeAPIError(w, toAPIError(err))
			return
		}
		e.writeTo(w, http.StatusOK)
	})
}

// testHooks honors the tests' query parameters when Config.TestHooks is
// set: delayms holds the request in flight, panic=1 crashes the handler.
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

// weightsParam reads ws (service weight, default 0.5; expense is 1−ws).
func weightsParam(q *params) (core.Weights, error) {
	ws, err := floatParam(q, "ws", 0.5)
	return core.Weights{Service: ws, Expense: 1 - ws}, err
}

// requestParams reads the planning question /v1/advise, /v1/qos and
// /v1/joint share: c (default 5000) and ws. A route adds what else it takes.
func requestParams(q *params) (core.Request, error) {
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return core.Request{}, err
	}
	w, err := weightsParam(q)
	return core.Request{C: c, Weights: w}, err
}

// answer judges r — core.Request's Validate, as a 400 — before any model is
// built, then answers it from the pool entry for (platform, app, r's grid).
func (s *Server) answer(ctx context.Context, plat, app string, r core.Request) (*plannerEntry, core.JointPlan, error) {
	if err := r.Validate(); err != nil {
		return nil, core.JointPlan{}, badRequest("%v", err)
	}
	pe, err := s.pool.get(ctx, plat, app, r.SizesMB)
	if err != nil {
		return nil, core.JointPlan{}, err
	}
	plan, err := pe.planner.Answer(r)
	if err != nil {
		return nil, core.JointPlan{}, badRequest("%v", err)
	}
	return pe, plan, nil
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
	e.int("instances", core.CeilDiv(p.Concurrency, p.Degree))
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
	r, err := requestParams(q)
	if err != nil {
		return err
	}
	pe, plan, err := s.answer(ctx, plat, app, r)
	if err != nil {
		return err
	}
	lo, hi, err := pe.planner.DegreeRange(r.C, r.Weights)
	if err != nil {
		return badRequest("%v", err)
	}
	openEcho(e, app, pe.platformName, r.C)
	appendWeights(e, r.Weights)
	e.int("max_degree", pe.planner.Models().MaxDegree)
	appendPlan(e, plan.Plan)
	e.int("degree_lo", lo)
	e.int("degree_hi", hi)
	e.float("model_overhead_usd", pe.overhead.TotalUSD())
	e.end('}')
	return nil
}

// computeQoS is GET /v1/qos?app=&platform=&c=&qos=&ws= — tail-latency-bounded
// planning (Sec. 2.6). The bound is the route's question, so it must be
// positive here; ws is read and judged as on every route, and the bound
// replaces it.
func (s *Server) computeQoS(ctx context.Context, q *params, e *jsonEnc) error {
	app, plat := q.Get("app"), q.Get("platform")
	r, err := requestParams(q)
	if err == nil {
		r.QoSSec, err = floatParam(q, "qos", 0)
	}
	if err != nil {
		return err
	}
	if !(r.QoSSec > 0) {
		return badRequest("qos must be a positive p95 bound in seconds")
	}
	pe, plan, err := s.answer(ctx, plat, app, r)
	if err != nil {
		return err
	}
	openEcho(e, app, pe.platformName, r.C)
	e.float("qos_sec", r.QoSSec)
	e.float("tail_quantile", 95)
	appendWeights(e, plan.Weights)
	appendPlan(e, plan.Plan)
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
	r, err := requestParams(q)
	if err == nil {
		r.QoSSec, err = floatParam(q, "qos", 0)
	}
	if err != nil {
		return err
	}
	if v := q.Get("sizes"); v != "" {
		if strings.Count(v, ",") >= maxGridSizes {
			return badRequest("sizes lists more than %d memory sizes, the most /v1/joint profiles for one grid", maxGridSizes)
		}
		if r.SizesMB, err = ParseMemSizes(v); err != nil {
			return badRequest("%v", err)
		}
	} else {
		cfg, err := PlatformByName(plat)
		if err != nil {
			return badRequest("%v", err)
		}
		r.SizesMB = defaultGridSizes(cfg.Shape.MemoryMB)
	}
	pe, plan, err := s.answer(ctx, plat, app, r)
	if err != nil {
		return err
	}
	maxDegree := 0
	grid, _ := pe.planner.Grid()
	for _, sm := range grid.Sizes {
		if sm.MemMB == plan.MemMB {
			maxDegree = sm.Models.MaxDegree
		}
	}
	openEcho(e, app, pe.platformName, r.C)
	appendWeights(e, plan.Weights)
	if r.QoSSec > 0 { // a weighted request carries neither member
		e.float("qos_sec", r.QoSSec)
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
	e.int("instances", core.CeilDiv(c, degree))
	e.float("et_sec", models.ET.At(degree))
	e.float("service_sec", t.ServiceTime(degree))
	e.float("p95_service_sec", t.ServiceTimeQuantile(degree, 95))
	e.float("expense_usd", t.Expense(degree))
	e.end('}')
	return nil
}

// computeMixed is GET /v1/mixed?app=Name:count&app=Name:count&platform=&ws=
// — plan-only heterogeneous packing (the Sec. 5 extension).
func (s *Server) computeMixed(ctx context.Context, q *params, e *jsonEnc) error {
	plat := q.Get("platform")
	w, err := weightsParam(q)
	if err != nil {
		return err
	}
	if err := w.Validate(); err != nil {
		return badRequest("%v", err)
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
	counts := make([]int, len(specs))
	for i, spec := range specs {
		name, countStr, ok := strings.Cut(spec, ":")
		if !ok {
			return badRequest("bad app spec %q (want Name:count)", spec)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return badRequest("bad app count in %q", spec)
		}
		counts[i] = count
		wl, err := workload.ByName(name)
		if err != nil {
			return badRequest("%v", err)
		}
		apps[i] = orchestrator.MixedApp{Workload: wl, Count: count}
	}
	// The planner's own bound, judged before the profiling it would follow.
	if err := core.CheckMixedCounts(counts...); err != nil {
		return badRequest("%v", err)
	}
	job, err := s.pool.mixed(ctx, cfg, apps, w)
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
	e.str("strategy", job.Plan.Strategy)
	e.int("instances", job.Plan.Instances())
	e.float("predicted_service_sec", job.Plan.PredictedServiceSec)
	e.float("predicted_expense_usd", job.Plan.PredictedExpenseUSD)
	// Identical consecutive bin compositions are run-length encoded — a
	// 500-instance plan is usually two or three distinct compositions, and
	// the response stays bounded no matter the concurrency.
	e.open("bins", '[')
	for bins := job.Plan.BinCounts; len(bins) > 0; {
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
	e.float("model_overhead_usd", job.Overhead.TotalUSD())
	e.end('}')
	return nil
}
