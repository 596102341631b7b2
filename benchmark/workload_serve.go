package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
)

// The serve mix: four routes in fixed shares over the whole panel.
var (
	serveRoutes = []string{"advise", "plan", "qos", "joint"}
	// routeCum is the cumulative share of each route, in percent.
	routeCum = []int{40, 70, 90, 100}
	// hotC are the concurrency levels 80 % of requests use; the other 20 %
	// draw from a larger cold pool so the daemon's 64-entry table and grid
	// caches miss and evict.
	hotC = []int{500, 1000, 1500, 2000, 2500, 3000, 4000, 5000}
)

const (
	serveRingLen = 4096
	serveAPIKeys = 64
	hotSharePct  = 80
)

// concurrencyUniverse is hotC followed by `cold` distinct levels in
// [100, 20000] from a fixed generator: the seed picks which levels a run
// visits, never what the levels are, so every response has a golden.
func concurrencyUniverse(cold int) []int {
	cs := append([]int(nil), hotC...)
	seen := make(map[int]bool, len(cs)+cold)
	for _, c := range cs {
		seen[c] = true
	}
	rng := rand.New(rand.NewSource(20230616))
	for len(cs) < len(hotC)+cold {
		if c := 100 + rng.Intn(19901); !seen[c] {
			seen[c] = true
			cs = append(cs, c)
		}
	}
	return cs
}

// respWriter is the minimal reusable http.ResponseWriter: it keeps the status
// and the body and allocates nothing once its buffers have grown.
type respWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}
func (w *respWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body = w.body[:0]
}

type serveSlot struct {
	req   *http.Request
	want  []byte
	ok    bool // the slot's (route, pair) group matched its golden
	route int
	c     int
}

// serveDriver is one closed-loop client: a planner client waits for its plan
// before launching its burst, so the next request follows the reply.
type serveDriver struct {
	ring   []serveSlot
	rw     respWriter
	non200 int
	// Traced windows only.
	stages  []obs.Span
	routeNS [4]float64
	routeN  [4]float64
}

// stageRecorder collects the daemon's own guard-stage spans (Config.Trace).
// The daemon flushes one request's burst under its trace mutex and on the
// goroutine that served the request, so cur is written and read under that
// mutex and each driver's stages are touched only by that driver.
type stageRecorder struct {
	drivers []*serveDriver
	cur     *serveDriver
}

func (r *stageRecorder) BeginBurst(b obs.BurstInfo) {
	r.cur = nil
	if k, err := strconv.Atoi(b.Label[1:]); err == nil && b.Label[0] == 'd' && k < len(r.drivers) {
		r.cur = r.drivers[k]
	}
}
func (r *stageRecorder) Span(s obs.Span) {
	if r.cur != nil {
		r.cur.stages = append(r.cur.stages, s)
	}
}
func (*stageRecorder) Event(obs.Event) {}

// pairModels is what the harness needs to know about a pair to build valid
// requests: the degree range for /v1/plan and a feasible bound for /v1/qos.
type pairModels struct {
	planner *core.Planner
	maxDeg  int
}

// serveMix is the daemon's steady state: nproc closed-loop drivers calling
// the handler in process. server guards and JSON, obs telemetry and core's
// cached argmin and QoS paths do the work; platform and sim do none after
// set-up.
type serveMix struct {
	sz      sizing
	pairs   []pair
	cs      []int
	models  []pairModels
	srv     *server.Server
	handler http.Handler
	drv     []*serveDriver

	poolBuildSec float64
}

func newServeMix(sz sizing) *serveMix { return &serveMix{sz: sz} }

func (w *serveMix) name() string          { return "serve-mix" }
func (w *serveMix) drivers() int          { return runtime.NumCPU() }
func (w *serveMix) unitsPerOp() float64   { return 1 }
func (w *serveMix) tailQuantile() float64 { return 0.99 }
func (w *serveMix) sliceOps() int         { return serveRingLen }

func serveConfig(rec obs.Recorder) server.Config {
	return server.Config{TenantRPS: 1e6, TenantBurst: 1e6, Seed: 1, Trace: rec}
}

// requestURL is the request for one (route, pair, universe index) cell.
func (w *serveMix) requestURL(route int, p pair, pm pairModels, ci int) (string, error) {
	c := w.cs[ci]
	q := url.Values{"app": {p.app}, "platform": {p.platform}, "c": {strconv.Itoa(c)}}
	switch serveRoutes[route] {
	case "plan":
		q.Set("degree", strconv.Itoa(1+ci%pm.maxDeg))
	case "qos":
		tightest, err := pm.planner.TailServiceAt(c, core.ServiceOnly(), 95)
		if err != nil {
			return "", err
		}
		// A bound a tenth above the tightest achievable tail: feasible, and
		// deep in the weight search.
		q.Set("qos", strconv.FormatFloat(math.Ceil(tightest*1.1*1000)/1000, 'f', 3, 64))
	}
	return "/v1/" + serveRoutes[route] + "?" + q.Encode(), nil
}

func serveKey(route int, p pair) string { return serveRoutes[route] + "|" + p.key() }

func (w *serveMix) goldenMap(g *goldens) map[string]string {
	if w.sz.smoke {
		return g.ServeSmoke
	}
	return g.Serve
}

// inputs fixes the request universe: the panel, the concurrency levels and
// the harness's own models of each pair (built as the daemon builds them).
func (w *serveMix) inputs() error {
	w.pairs = panel(w.sz.pairs)
	w.cs = concurrencyUniverse(w.sz.coldC)
	w.models = make([]pairModels, len(w.pairs))
	for i, p := range w.pairs {
		meas := &core.SimMeasurer{Config: p.cfg, Demand: p.demand, Seed: 1}
		m, _, _, _, err := core.BuildModels(meas, core.ProfileOptionsFor(p.cfg, p.demand))
		if err != nil {
			return fmt.Errorf("models for %s: %w", p.key(), err)
		}
		w.models[i] = pairModels{planner: core.NewPlanner(m), maxDeg: m.MaxDegree}
	}
	return nil
}

// universe serves every (route, pair, concurrency) cell once, in universe
// order, and returns the bodies and one digest per (route, pair).
func (w *serveMix) universe() (bodies map[string][][]byte, digests map[string]string, err error) {
	bodies, digests = map[string][][]byte{}, map[string]string{}
	rw := respWriter{h: http.Header{}}
	var poolBuild time.Duration
	for route := range serveRoutes {
		for i, p := range w.pairs {
			h := sha256.New()
			cell := make([][]byte, len(w.cs))
			for ci := range w.cs {
				u, err := w.requestURL(route, p, w.models[i], ci)
				if err != nil {
					return nil, nil, err
				}
				rw.reset()
				t0 := time.Now()
				w.handler.ServeHTTP(&rw, httptest.NewRequest("GET", u, nil))
				if route == 0 && ci == 0 {
					poolBuild += time.Since(t0) // the pair's first request builds its models
				}
				if rw.code != http.StatusOK {
					return nil, nil, fmt.Errorf("GET %s: status %d: %s", u, rw.code, rw.body)
				}
				h.Write(rw.body)
				cell[ci] = bytes.Clone(rw.body)
			}
			bodies[serveKey(route, p)] = cell
			digests[serveKey(route, p)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	w.poolBuildSec = poolBuild.Seconds() / float64(len(w.pairs))
	return bodies, digests, nil
}

func (w *serveMix) setup(seed int64, traced bool) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	if err := w.inputs(); err != nil {
		return err
	}
	w.drv = make([]*serveDriver, w.drivers())
	for d := range w.drv {
		w.drv[d] = &serveDriver{rw: respWriter{h: http.Header{}}}
	}
	var rec obs.Recorder
	if traced {
		rec = &stageRecorder{drivers: w.drv}
	}
	w.srv, err = server.New(serveConfig(rec))
	if err != nil {
		return err
	}
	w.handler = w.srv.Handler()

	// The universe pass is also the warm-up: it builds the planner pool and
	// leaves the daemon's caches in their steady state.
	bodies, digests, err := w.universe()
	if err != nil {
		return err
	}
	golden := w.goldenMap(g)
	for d, drv := range w.drv {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(d)))
		drv.ring = make([]serveSlot, serveRingLen)
		for s := range drv.ring {
			route := 0
			for r := rng.Intn(100); r >= routeCum[route]; {
				route++
			}
			pi := rng.Intn(len(w.pairs))
			ci := rng.Intn(len(hotC))
			if rng.Intn(100) >= hotSharePct {
				ci = len(hotC) + rng.Intn(len(w.cs)-len(hotC))
			}
			p := w.pairs[pi]
			u, err := w.requestURL(route, p, w.models[pi], ci)
			if err != nil {
				return err
			}
			// The nonce keeps two drivers from ever coalescing on one key.
			req := httptest.NewRequest("GET", fmt.Sprintf("%s&i=d%d-%d", u, d, s), nil)
			req.Header.Set("X-API-Key", "tenant-"+strconv.Itoa(s%serveAPIKeys))
			if traced {
				// The daemon echoes the ID as its trace label, which is how a
				// stage span finds its driver.
				req.Header.Set("X-Request-ID", "d"+strconv.Itoa(d))
			}
			key := serveKey(route, p)
			drv.ring[s] = serveSlot{
				req: req, want: bodies[key][ci], ok: digests[key] == golden[key],
				route: route, c: w.cs[ci],
			}
		}
	}
	return nil
}

func (w *serveMix) run(d, i int, tr *tracer, parent int) error {
	drv := w.drv[d]
	slot := &drv.ring[i%len(drv.ring)]
	drv.rw.reset()
	if tr == nil {
		w.handler.ServeHTTP(&drv.rw, slot.req)
		return nil
	}
	drv.stages = drv.stages[:0]
	start := tr.now()
	w.handler.ServeHTTP(&drv.rw, slot.req)
	end := tr.now()
	drv.routeNS[slot.route] += float64(end - start)
	drv.routeN[slot.route]++
	for _, s := range drv.stages {
		tr.add(i+1, parent, "server.stage_"+s.Stage.String(),
			start+int64(s.StartSec*1e9), start+int64(s.EndSec*1e9))
	}
	return nil
}

func (w *serveMix) check(d, i int) bool {
	drv := w.drv[d]
	slot := &drv.ring[i%len(drv.ring)]
	if drv.rw.code != http.StatusOK {
		drv.non200++
		return false
	}
	return slot.ok && bytes.Equal(drv.rw.body, slot.want)
}

func (w *serveMix) regold(g *goldens) error {
	for _, sz := range []sizing{fullSizing(), smokeSizing()} {
		u := newServeMix(sz)
		if err := u.inputs(); err != nil {
			return err
		}
		srv, err := server.New(serveConfig(nil))
		if err != nil {
			return err
		}
		u.handler = srv.Handler()
		_, digests, err := u.universe()
		if err != nil {
			return err
		}
		if sz.smoke {
			g.ServeSmoke = digests
		} else {
			g.Serve = digests
		}
	}
	return nil
}

func (w *serveMix) layers(agg perOp, out values) {
	const us = 1e3
	for r, name := range serveRoutes {
		var ns, n float64
		for _, drv := range w.drv {
			ns += drv.routeNS[r]
			n += drv.routeN[r]
		}
		if n > 0 {
			out["server.handler_us."+name] = ns / n / us
		}
	}
	limit := agg.durNS["server.stage_"+obs.StageLimit.String()]
	admit := agg.durNS["server.stage_"+obs.StageAdmit.String()]
	plan := agg.durNS["server.stage_"+obs.StagePlan.String()] + agg.durNS["server.stage_"+obs.StageCoalesce.String()]
	out["server.stage_limit_us"] = limit / us
	out["server.stage_admit_us"] = admit / us
	out["server.stage_plan_us"] = plan / us
	// Decode, encode and telemetry: the handler minus its guard stages.
	out["server.other_us"] = agg.self[w.name()] / us
	out["server.pool_build_ms"] = w.poolBuildSec * 1e3
}

// admittedRatio is the share of a window's requests that got a 200.
func (w *serveMix) admittedRatio(attempted int) float64 {
	rejected := 0
	for _, drv := range w.drv {
		rejected += drv.non200
	}
	return 1 - float64(rejected)/float64(attempted)
}

// serveProbes measures the layers under serve-mix one at a time, against w's
// daemon, which must have been set up untraced.
func serveProbes(sz sizing, w *serveMix, out values) error {
	drv := w.drv[0]
	rw := &drv.rw
	get := func(h http.Handler, req *http.Request) error {
		rw.reset()
		h.ServeHTTP(rw, req)
		if rw.code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", req.URL, rw.code, rw.body)
		}
		return nil
	}

	// Allocation per request over one lap of a driver's ring.
	objects, bytes, err := allocsOf(func() error {
		for s := range drv.ring {
			if err := get(w.handler, drv.ring[s].req); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["server.allocs_per_req"] = objects / float64(len(drv.ring))
	out["server.alloc_kb_per_req"] = bytes / 1024 / float64(len(drv.ring))

	// /v1/mixed runs a profiling pipeline per call; it stays out of the mix
	// (it would own the throughput) and is measured here.
	mixed := httptest.NewRequest("GET", "/v1/mixed?app=Video:60&app=Smith-Waterman:60&platform=aws", nil)
	ns, err := medianNS(max(20/sz.probeScale, 3), func() error { return get(w.handler, mixed) })
	if err != nil {
		return err
	}
	out["server.handler_us.mixed"] = ns / 1e3

	// Telemetry middleware on vs off on the advise hot path: interleaved
	// rounds, best round of each side, as TestTelemetryOverhead does.
	hot := httptest.NewRequest("GET", "/v1/advise?app=Video&platform=aws&c=2000", nil)
	var side [2]http.Handler
	for k, disable := range []bool{true, false} {
		cfg := serveConfig(nil)
		cfg.DisableTelemetry = disable
		s, err := server.New(cfg)
		if err != nil {
			return err
		}
		side[k] = s.Handler()
		if err := get(side[k], hot); err != nil {
			return err
		}
	}
	best := [2]float64{math.Inf(1), math.Inf(1)}
	iters := 4000 / sz.probeScale
	for round := 0; round < 6; round++ {
		for k := range side {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if err := get(side[k], hot); err != nil {
					return err
				}
			}
			best[k] = math.Min(best[k], float64(time.Since(t0))/float64(iters))
		}
	}
	out["server.telemetry_overhead_pct"] = (best[1]/best[0] - 1) * 100

	if err := httpRoundtripProbe(sz, w.srv, out); err != nil {
		return err
	}
	if err := plannerProbes(sz, w, out); err != nil {
		return err
	}
	return telemetryPrimitiveProbes(sz, w.srv, out)
}

// httpRoundtripProbe puts the daemon behind a real loopback socket and times
// one keep-alive client: what a remote caller adds to the in-process number.
func httpRoundtripProbe(sz sizing, srv *server.Server, out values) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = srv.Run(ctx, ln)
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	target := "http://" + ln.Addr().String() + "/v1/advise?app=Video&platform=aws&c=2000"
	fetch := func() error {
		resp, err := client.Get(target)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", target, resp.StatusCode)
		}
		return err
	}
	err = fetch() // opens the connection
	var ns float64
	if err == nil {
		ns, err = medianNS(max(1000/sz.probeScale, 20), fetch)
	}
	client.CloseIdleConnections()
	cancel()
	wg.Wait()
	if err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	out["server.http_roundtrip_p50_us"] = ns / 1e3
	return nil
}

// plannerProbes times core's cached and uncached planning paths on one
// pair's models: the work behind the stage_plan span.
func plannerProbes(sz sizing, w *serveMix, out values) error {
	p := w.pairs[0]
	meas := &core.SimMeasurer{Config: p.cfg, Demand: p.demand, Seed: 1}
	models, _, _, _, err := core.BuildModels(meas, core.ProfileOptionsFor(p.cfg, p.demand))
	if err != nil {
		return err
	}
	probes, err := core.GridProbesFor(p.cfg, p.demand, gridSizes(p.cfg), 1)
	if err != nil {
		return err
	}
	grid, _, err := core.BuildGridModels(probes)
	if err != nil {
		return err
	}
	pl := core.NewPlanner(models)
	jpl, err := core.NewJointPlanner(grid)
	if err != nil {
		return err
	}
	const c = 5000
	bal := core.Balanced()
	reps, n := 5, 20000/sz.probeScale

	if _, err := pl.PlanFor(c, bal); err != nil {
		return err
	}
	ns, err := perCallNS(reps, n, func() error { _, err := pl.PlanFor(c, bal); return err })
	if err != nil {
		return err
	}
	out["core.plan_cached_ns"] = ns
	ns, err = perCallNS(reps, n/20, func() error { _, err := models.PlanFor(c, bal); return err })
	if err != nil {
		return err
	}
	out["core.plan_miss_us"] = ns / 1e3

	// Bounds just above the tightest achievable tail force the weight search
	// deep into its grid, as BenchmarkQoSPlan and BenchmarkPlanJoint do.
	tight, err := models.TailServiceAt(c, core.ServiceOnly(), 95)
	if err != nil {
		return err
	}
	ns, err = perCallNS(reps, n/20, func() error { _, _, err := pl.QoSPlan(c, tight*1.02, core.QoSOptions{}); return err })
	if err != nil {
		return err
	}
	out["core.qos_plan_us"] = ns / 1e3
	jointTight := math.Inf(1)
	for _, s := range grid.Sizes {
		v, err := s.Models.TailServiceAt(c, core.ServiceOnly(), 95)
		if err != nil {
			return err
		}
		jointTight = math.Min(jointTight, v)
	}
	ns, err = perCallNS(reps, n/20, func() error { _, _, err := jpl.QoSPlanJoint(c, jointTight*1.02, core.QoSOptions{}); return err })
	if err != nil {
		return err
	}
	out["core.qos_joint_us"] = ns / 1e3
	ns, err = perCallNS(reps, n, func() error { _, err := jpl.PlanJointFor(c, bal); return err })
	if err != nil {
		return err
	}
	out["core.joint_plan_cached_ns"] = ns
	ns, err = perCallNS(reps, n/20, func() error { _, err := core.NewGridTable(grid, c); return err })
	if err != nil {
		return err
	}
	out["core.grid_table_build_us"] = ns / 1e3

	// One shared planner, one goroutine per processor, warm tables.
	procs := runtime.NumCPU()
	warm := []int{500, 1000, 2500, 5000, 7500, 10000}
	for _, wc := range warm {
		if _, err := pl.PlanFor(wc, bal); err != nil {
			return err
		}
	}
	ns, err = medianNS(reps, func() error {
		var wg sync.WaitGroup
		errs := make([]error, procs)
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := pl.PlanFor(warm[i%len(warm)], bal); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["core.planner_concurrent_ns"] = ns / float64(n*procs)

	// The workload's own concurrency sequence through a 64-entry table cache.
	tc := core.NewTableCache(models, 0)
	ring := w.drv[0].ring
	for _, slot := range ring {
		if _, err := tc.Table(slot.c); err != nil {
			return err
		}
	}
	out["core.table_cache_hit_ratio"] = 1 - float64(tc.Builds())/float64(len(ring))
	return nil
}

// telemetryPrimitiveProbes times the obs and resilience primitives every
// request touches, and one scrape of the daemon's registry.
func telemetryPrimitiveProbes(sz sizing, srv *server.Server, out values) error {
	reps, n := 5, 200000/sz.probeScale
	reg := obs.NewRegistry()
	ctr := reg.Counter("probe_total")
	ns, err := perCallNS(reps, n, func() error { ctr.Inc(); return nil })
	if err != nil {
		return err
	}
	out["obs.counter_inc_ns"] = ns
	hist := reg.Histogram("probe_seconds", nil)
	ns, err = perCallNS(reps, n, func() error { hist.Observe(0.000015); return nil })
	if err != nil {
		return err
	}
	out["obs.histogram_observe_ns"] = ns
	ns, err = perCallNS(reps, max(200/sz.probeScale, 5), func() error { return srv.Registry().WritePrometheus(io.Discard) })
	if err != nil {
		return err
	}
	out["obs.prometheus_scrape_us"] = ns / 1e3
	br, err := resilience.NewBreaker(resilience.DefaultBreakerConfig())
	if err != nil {
		return err
	}
	now := time.Now()
	ns, err = perCallNS(reps, n, func() error {
		if br.Allow(now) {
			br.Record(now, 0.000015, false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["resilience.breaker_allow_record_ns"] = ns
	return nil
}
