package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
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

func writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		secs := int64(math.Ceil(e.retryAfter.Seconds()))
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, e.status, map[string]string{"error": e.msg})
}

// computeFn produces an endpoint's response value. It runs under the
// request deadline, behind admission control and the breaker, possibly
// coalesced with identical concurrent requests.
type computeFn func(ctx context.Context, q url.Values) (any, error)

// endpoint wraps a compute function in the full robustness chain:
// panic recovery → rate limit → admission → deadline → breaker →
// coalescing → compute, with every decision surfaced in the registry.
// When the telemetry middleware is active, each guard stage also emits a
// span into the request's trace (limit → admit → plan-or-coalesce).
func (s *Server) endpoint(name string, compute computeFn) http.Handler {
	reqs := s.reg.Counter("http_requests_" + name)
	lat := s.reg.Histogram("http_seconds_"+name, nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				// The localfaas pattern: a panic fails only this request,
				// never the daemon.
				s.reg.Counter("http_panics_total").Inc()
				s.log.Error("handler panic", "endpoint", name, "panic", fmt.Sprint(p))
				writeAPIError(w, &apiError{status: http.StatusInternalServerError, msg: "internal error"})
			}
		}()
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeAPIError(w, &apiError{status: http.StatusMethodNotAllowed, msg: "use GET"})
			return
		}
		reqs.Inc()
		s.reg.Counter("http_requests_total").Inc()
		rt := traceOf(w)

		// Per-tenant token bucket.
		tenant := tenantOf(r)
		mark := rt.origin()
		ok, retryAfter := s.tenants.allow(tenant, s.cfg.Clock())
		mark = rt.spanFrom(obs.StageLimit, mark)
		if !ok {
			s.reg.Counter("http_ratelimited_total").Inc()
			s.log.Debug("rate limited", "tenant", tenant, "endpoint", name)
			writeAPIError(w, &apiError{
				status: http.StatusTooManyRequests, retryAfter: retryAfter,
				msg: "tenant rate limit exceeded",
			})
			return
		}
		s.reg.Gauge("ratelimit_tenants").Set(float64(s.tenants.size()))
		s.reg.Counter("ratelimit_evictions_total").Add(s.tenants.evicted() - s.reg.Counter("ratelimit_evictions_total").Value())

		// Admission: bounded in-flight work, bounded queue, honest shedding.
		release, st := s.adm.acquire(r.Context())
		mark = rt.spanFrom(obs.StageAdmit, mark)
		s.reg.Gauge("http_queue_depth").Set(float64(s.adm.queued()))
		switch st {
		case admitShed:
			s.reg.Counter("http_shed_total").Inc()
			writeAPIError(w, &apiError{
				status: http.StatusTooManyRequests, retryAfter: s.cfg.ShedRetryAfter,
				msg: "server overloaded, request shed",
			})
			return
		case admitTimeout:
			s.reg.Counter("http_queue_timeout_total").Inc()
			writeAPIError(w, &apiError{status: http.StatusServiceUnavailable, msg: "queued past deadline"})
			return
		}
		defer func() {
			release()
			s.reg.Gauge("http_inflight").Set(float64(s.adm.inFlight()))
		}()
		s.reg.Gauge("http_inflight").Set(float64(s.adm.inFlight()))

		// Per-request deadline, propagated through the compute path.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		// Circuit breaker on the planner path.
		now := s.cfg.Clock()
		if !s.breaker.Allow(now) {
			s.reg.Counter("breaker_rejected_total").Inc()
			writeAPIError(w, &apiError{
				status: http.StatusServiceUnavailable, retryAfter: s.breaker.RetryAfter(now),
				msg: "planner circuit open",
			})
			return
		}

		q := r.URL.Query()
		start := time.Now()
		val, err, shared := s.flights.Do(ctx, name+"?"+q.Encode(), func() (any, error) {
			if s.cfg.TestHooks {
				if err := s.testHooks(ctx, q); err != nil {
					return nil, err
				}
			}
			return compute(ctx, q)
		})
		dur := time.Since(start).Seconds()
		lat.Observe(dur)
		if shared {
			// A follower spent the interval waiting on the leader's
			// computation, not computing.
			rt.spanFrom(obs.StageCoalesce, mark)
		} else {
			rt.spanFrom(obs.StagePlan, mark)
		}
		var ae *apiError
		if err != nil {
			ae = toAPIError(err)
		}
		s.breaker.Record(s.cfg.Clock(), dur, ae != nil && ae.status >= 500)
		s.reg.Gauge("breaker_state").Set(float64(s.breaker.State()))
		if shared {
			s.reg.Counter("http_coalesced_total").Inc()
		}
		s.reg.Gauge("planner_models").Set(float64(s.pool.size()))
		if ae != nil {
			writeAPIError(w, ae)
			return
		}
		writeJSON(w, http.StatusOK, val)
	})
}

// testHooks honors the e2e/load-test query parameters when Config.TestHooks
// is set: delayms holds the request in flight, panic=1 crashes the handler.
func (s *Server) testHooks(ctx context.Context, q url.Values) error {
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

func intParam(q url.Values, name string, def int) (int, error) {
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

func floatParam(q url.Values, name string, def float64) (float64, error) {
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

// sizesParam reads sizes, a comma-separated memory grid in MB (e.g.
// sizes=2048,4096,10240). Empty means the platform default grid; order and
// positivity are validated downstream by the grid builder with typed
// errors.
func sizesParam(q url.Values) ([]float64, error) {
	v := q.Get("sizes")
	if v == "" {
		return nil, nil
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
func weightsParam(q url.Values) (core.Weights, error) {
	ws, err := floatParam(q, "ws", 0.5)
	if err != nil {
		return core.Weights{}, err
	}
	if ws < 0 || ws > 1 {
		return core.Weights{}, badRequest("ws %g outside [0,1]", ws)
	}
	return core.Weights{Service: ws, Expense: 1 - ws}, nil
}

// ceilDiv is the instance count at a packing degree.
func ceilDiv(c, degree int) int { return (c + degree - 1) / degree }

// --- Response shapes ---------------------------------------------------------

type planJSON struct {
	Degree              int     `json:"degree"`
	Instances           int     `json:"instances"`
	PredictedServiceSec float64 `json:"predicted_service_sec"`
	PredictedExpenseUSD float64 `json:"predicted_expense_usd"`
	BaselineServiceSec  float64 `json:"baseline_service_sec"`
	BaselineExpenseUSD  float64 `json:"baseline_expense_usd"`
}

func planToJSON(p core.Plan) planJSON {
	return planJSON{
		Degree:              p.Degree,
		Instances:           ceilDiv(p.Concurrency, p.Degree),
		PredictedServiceSec: p.PredictedServiceSec,
		PredictedExpenseUSD: p.PredictedExpenseUSD,
		BaselineServiceSec:  p.BaselineServiceSec,
		BaselineExpenseUSD:  p.BaselineExpenseUSD,
	}
}

type adviseResponse struct {
	App              string   `json:"app"`
	Platform         string   `json:"platform"`
	C                int      `json:"c"`
	WService         float64  `json:"w_service"`
	WExpense         float64  `json:"w_expense"`
	MaxDegree        int      `json:"max_degree"`
	Plan             planJSON `json:"plan"`
	DegreeLo         int      `json:"degree_lo"`
	DegreeHi         int      `json:"degree_hi"`
	ModelOverheadUSD float64  `json:"model_overhead_usd"`
}

type qosResponse struct {
	App          string   `json:"app"`
	Platform     string   `json:"platform"`
	C            int      `json:"c"`
	QoSSec       float64  `json:"qos_sec"`
	TailQuantile float64  `json:"tail_quantile"`
	WService     float64  `json:"w_service"`
	WExpense     float64  `json:"w_expense"`
	Plan         planJSON `json:"plan"`
}

type jointResponse struct {
	App              string    `json:"app"`
	Platform         string    `json:"platform"`
	C                int       `json:"c"`
	WService         float64   `json:"w_service"`
	WExpense         float64   `json:"w_expense"`
	QoSSec           float64   `json:"qos_sec,omitempty"`
	TailQuantile     float64   `json:"tail_quantile,omitempty"`
	SizesMB          []float64 `json:"sizes_mb"`
	MemMB            float64   `json:"mem_mb"`
	MaxDegree        int       `json:"max_degree"`
	Plan             planJSON  `json:"plan"`
	ModelOverheadUSD float64   `json:"model_overhead_usd"`
}

type planAtResponse struct {
	App           string  `json:"app"`
	Platform      string  `json:"platform"`
	C             int     `json:"c"`
	Degree        int     `json:"degree"`
	MaxDegree     int     `json:"max_degree"`
	Instances     int     `json:"instances"`
	ETSec         float64 `json:"et_sec"`
	ServiceSec    float64 `json:"service_sec"`
	P95ServiceSec float64 `json:"p95_service_sec"`
	ExpenseUSD    float64 `json:"expense_usd"`
}

type mixedAppJSON struct {
	App   string `json:"app"`
	Count int    `json:"count"`
}

type mixedBinJSON struct {
	Counts []int `json:"counts"`
	N      int   `json:"n"`
}

type mixedResponse struct {
	Platform            string         `json:"platform"`
	Apps                []mixedAppJSON `json:"apps"`
	WService            float64        `json:"w_service"`
	WExpense            float64        `json:"w_expense"`
	Strategy            string         `json:"strategy"`
	Instances           int            `json:"instances"`
	PredictedServiceSec float64        `json:"predicted_service_sec"`
	PredictedExpenseUSD float64        `json:"predicted_expense_usd"`
	Bins                []mixedBinJSON `json:"bins"`
	ModelOverheadUSD    float64        `json:"model_overhead_usd"`
}

// --- Compute functions -------------------------------------------------------

// computeAdvise is GET /v1/advise?app=&platform=&c=&ws= — the cached
// equivalent of `propack advise`.
func (s *Server) computeAdvise(ctx context.Context, q url.Values) (any, error) {
	app, plat := q.Get("app"), q.Get("platform")
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return nil, err
	}
	if c < 1 {
		return nil, badRequest("c %d < 1", c)
	}
	w, err := weightsParam(q)
	if err != nil {
		return nil, err
	}
	e, err := s.pool.get(ctx, plat, app, nil)
	if err != nil {
		return nil, err
	}
	plan, err := e.planner.PlanFor(c, w)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	lo, hi, err := e.planner.DegreeRange(c, w, 0.02)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return &adviseResponse{
		App: app, Platform: e.platformName, C: c,
		WService: w.Service, WExpense: w.Expense,
		MaxDegree: e.planner.Models().MaxDegree,
		Plan:      planToJSON(plan), DegreeLo: lo, DegreeHi: hi,
		ModelOverheadUSD: e.overhead.TotalUSD(),
	}, nil
}

// computeQoS is GET /v1/qos?app=&platform=&c=&qos= — tail-latency-bounded
// planning (Sec. 2.6).
func (s *Server) computeQoS(ctx context.Context, q url.Values) (any, error) {
	app, plat := q.Get("app"), q.Get("platform")
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return nil, err
	}
	qos, err := floatParam(q, "qos", 0)
	if err != nil {
		return nil, err
	}
	if qos <= 0 {
		return nil, badRequest("qos must be a positive p95 bound in seconds")
	}
	e, err := s.pool.get(ctx, plat, app, nil)
	if err != nil {
		return nil, err
	}
	plan, w, err := e.planner.QoSPlan(c, qos, core.QoSOptions{})
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return &qosResponse{
		App: app, Platform: e.platformName, C: c,
		QoSSec: qos, TailQuantile: 95,
		WService: w.Service, WExpense: w.Expense,
		Plan: planToJSON(plan),
	}, nil
}

// computeJoint is GET /v1/joint?app=&platform=&c=&ws=&sizes=&qos= — joint
// degree × memory planning over a memory-size grid. With qos set, the
// objective weights come from the Sec. 2.6 search over the whole grid;
// otherwise ws applies directly. sizes defaults to quarter steps of the
// platform's instance memory.
func (s *Server) computeJoint(ctx context.Context, q url.Values) (any, error) {
	app, plat := q.Get("app"), q.Get("platform")
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return nil, err
	}
	if c < 1 {
		return nil, badRequest("c %d < 1", c)
	}
	w, err := weightsParam(q)
	if err != nil {
		return nil, err
	}
	qos, err := floatParam(q, "qos", 0)
	if err != nil {
		return nil, err
	}
	if qos < 0 {
		return nil, badRequest("qos must be a positive p95 bound in seconds")
	}
	sizes, err := sizesParam(q)
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		cfg, err := platformByName(plat)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		sizes = defaultGridSizes(cfg.Shape.MemoryMB)
	}
	e, err := s.pool.get(ctx, plat, app, sizes)
	if err != nil {
		return nil, err
	}
	resp := &jointResponse{
		App: app, Platform: e.platformName, C: c,
		SizesMB:          e.sizesMB,
		ModelOverheadUSD: e.overhead.TotalUSD(),
	}
	var plan core.JointPlan
	if qos > 0 {
		plan, w, err = e.planner.QoSPlanJoint(c, qos, core.QoSOptions{})
		if err != nil {
			return nil, badRequest("%v", err)
		}
		resp.QoSSec, resp.TailQuantile = qos, 95
	} else {
		plan, err = e.planner.PlanJointFor(c, w)
		if err != nil {
			return nil, badRequest("%v", err)
		}
	}
	resp.WService, resp.WExpense = w.Service, w.Expense
	resp.MemMB = plan.MemMB
	resp.Plan = planToJSON(plan.Plan)
	grid, _ := e.planner.Grid()
	for _, sm := range grid.Sizes {
		if sm.MemMB == plan.MemMB {
			resp.MaxDegree = sm.Models.MaxDegree
		}
	}
	return resp, nil
}

// computePlan is GET /v1/plan?app=&platform=&c=&degree= — model predictions
// at a caller-fixed packing degree, straight off the cached DegreeTable.
func (s *Server) computePlan(ctx context.Context, q url.Values) (any, error) {
	app, plat := q.Get("app"), q.Get("platform")
	c, err := intParam(q, "c", 5000)
	if err != nil {
		return nil, err
	}
	degree, err := intParam(q, "degree", 1)
	if err != nil {
		return nil, err
	}
	e, err := s.pool.get(ctx, plat, app, nil)
	if err != nil {
		return nil, err
	}
	models := e.planner.Models()
	if degree < 1 || degree > models.MaxDegree {
		return nil, badRequest("degree %d outside [1,%d]", degree, models.MaxDegree)
	}
	t, err := e.planner.Table(c)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return &planAtResponse{
		App: app, Platform: e.platformName, C: c,
		Degree: degree, MaxDegree: models.MaxDegree,
		Instances:     ceilDiv(c, degree),
		ETSec:         models.ET.At(degree),
		ServiceSec:    t.ServiceTime(degree),
		P95ServiceSec: t.ServiceTimeQuantile(degree, 95),
		ExpenseUSD:    t.Expense(degree),
	}, nil
}

// computeMixed is GET /v1/mixed?app=Name:count&app=Name:count&platform=&ws=
// — plan-only heterogeneous packing (the Sec. 5 extension).
func (s *Server) computeMixed(ctx context.Context, q url.Values) (any, error) {
	plat := q.Get("platform")
	w, err := weightsParam(q)
	if err != nil {
		return nil, err
	}
	specs := q["app"]
	if len(specs) < 2 {
		return nil, badRequest("need at least two app=Name:count parameters")
	}
	cfg, err := platformByName(plat)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	apps := make([]orchestrator.MixedApp, len(specs))
	jsonApps := make([]mixedAppJSON, len(specs))
	for i, spec := range specs {
		name, countStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, badRequest("bad app spec %q (want Name:count)", spec)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return nil, badRequest("bad app count in %q", spec)
		}
		wl, err := workload.ByName(name)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		apps[i] = orchestrator.MixedApp{Workload: wl, Count: count}
		jsonApps[i] = mixedAppJSON{App: wl.Name(), Count: count}
	}
	plan, overhead, err := orchestrator.PlanMixedJob(cfg, apps, w, s.cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("mixed planning: %w", err)
	}
	return &mixedResponse{
		Platform: cfg.Name, Apps: jsonApps,
		WService: w.Service, WExpense: w.Expense,
		Strategy:            plan.Strategy,
		Instances:           plan.Instances(),
		PredictedServiceSec: plan.PredictedServiceSec,
		PredictedExpenseUSD: plan.PredictedExpenseUSD,
		Bins:                compressBins(plan.BinCounts),
		ModelOverheadUSD:    overhead.TotalUSD(),
	}, nil
}

// compressBins run-length-encodes identical consecutive bin compositions —
// a 500-instance plan is usually two or three distinct compositions, and
// the response stays bounded no matter the concurrency.
func compressBins(bins [][]int) []mixedBinJSON {
	out := []mixedBinJSON{}
	for _, b := range bins {
		if n := len(out); n > 0 && equalInts(out[n-1].Counts, b) {
			out[n-1].N++
			continue
		}
		out = append(out, mixedBinJSON{Counts: append([]int(nil), b...), N: 1})
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
