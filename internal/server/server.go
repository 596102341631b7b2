// Package server implements the `propack serve` daemon: the planner as a
// long-running HTTP/JSON service, so many applications share one planner
// fleet instead of paying the modeling pipeline per CLI invocation.
//
// The API surface is deliberately small — /v1/advise, /v1/plan, /v1/qos,
// /v1/joint and /v1/mixed mirror the CLI subcommands, /healthz and /readyz
// speak to load balancers, and /metrics serves the registry as Prometheus
// text. The bulk of the package is the robustness layer around the shared
// propack planner:
//
//   - admission control: a bounded in-flight semaphore with a queue-depth
//     watermark; excess load is shed with 429 + Retry-After before
//     goroutines pile up (fail fast beats fail slow);
//   - per-tenant token-bucket rate limits keyed on the API key header,
//     with a default bucket for anonymous callers;
//   - per-request deadlines propagated via context, and per-handler panic
//     recovery;
//   - one singleflight per slow step: identical concurrent first requests
//     share one model build, and identical concurrent /v1/mixed jobs one
//     plan (the planner pool's flight); core's sharded GridCache does the
//     same for a table build;
//   - graceful drain: Run flips /readyz to 503 on context cancellation,
//     optionally keeps serving through a grace period so load balancers
//     notice, then drains in-flight requests under a deadline. No admitted
//     request is ever dropped by a drain.
package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config tunes the daemon. The zero value is usable: every field documents
// its default.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (admission
	// capacity). Zero means 32.
	MaxInFlight int
	// MaxQueue is the watermark on requests waiting for an admission slot;
	// beyond it new arrivals are shed immediately. Zero means 2×MaxInFlight.
	MaxQueue int
	// RequestTimeout is the per-request deadline, propagated via context.
	// Zero means 10 s.
	RequestTimeout time.Duration

	// TenantRPS and TenantBurst shape each tenant's token bucket. Zero
	// means 50 req/s with a burst of 100. A negative TenantRPS disables
	// rate limiting (used by benchmarks).
	TenantRPS   float64
	TenantBurst float64

	// DrainGrace keeps the listener serving (with /readyz already 503)
	// after shutdown begins, so load balancers stop routing before
	// connections start draining. Zero means no grace period.
	DrainGrace time.Duration
	// DrainTimeout bounds the drain; in-flight requests past it are cut.
	// Zero means 30 s.
	DrainTimeout time.Duration

	// Seed is the deterministic simulation seed behind every model build.
	// Zero means 1.
	Seed int64

	// Log receives structured logs; nil discards them.
	Log *slog.Logger
	// AccessLog receives one structured line per /v1 request (request ID,
	// route, status, tenant class, duration). Nil disables access logging —
	// the metrics and trace stream carry the same signal without the
	// per-request formatting cost.
	AccessLog *slog.Logger
	// Trace receives one burst per /v1 request — guard-stage spans labeled
	// with the request ID — in the same typed stream the simulator emits.
	// Nil disables request tracing (stage histograms still populate).
	Trace obs.Recorder
	// SLO configures the /slo tracker's objectives; the zero value takes obs
	// defaults (99.9% availability, 95% < 250 ms). The tracker's clock
	// follows Config.Clock.
	SLO obs.SLOConfig
	// DisableTelemetry strips the per-request instrumentation middleware
	// (request IDs, RED metrics, SLO accounting, spans). Only the telemetry
	// overhead benchmark should set this.
	DisableTelemetry bool
	// EnableDebug mounts obs.DebugMux (pprof, expvar) on the service mux.
	// The /metrics and /slo routes are always mounted.
	EnableDebug bool

	// TestHooks enables the `delayms` and `panic` query parameters that the
	// e2e drain, overload, queue and deadline tests use to give requests a
	// controllable duration. Never enable in production.
	TestHooks bool

	// Clock overrides time.Now for the limiter and the SLO tracker, so tests
	// drive them without sleeping. Nil means time.Now.
	Clock func() time.Time
}

// shedRetryAfter is the Retry-After hint on shed (429) responses.
const shedRetryAfter = time.Second

// maxTenants bounds the limiter table; the least-recently-seen bucket is
// evicted beyond it.
const maxTenants = 4096

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.TenantRPS == 0 {
		c.TenantRPS = 50
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 100
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.SLO.Clock == nil {
		c.SLO.Clock = c.Clock
	}
	return c
}

// Server is the planner-as-a-service daemon. Build with New, serve with
// Run (or mount Handler on a listener of your own).
type Server struct {
	cfg     Config
	reg     *obs.Registry
	log     *slog.Logger
	mux     *http.ServeMux
	adm     *admission
	tenants *tenantLimiter
	pool    *plannerPool
	slo     *obs.SLO
	tel     *telemetry
	ready   atomic.Bool
}

// New builds a server from the config, reporting into a fresh registry
// (Registry). No config makes it fail: its error is always nil.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		log:     cfg.Log,
		mux:     http.NewServeMux(),
		adm:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		tenants: newTenantLimiter(cfg.TenantRPS, cfg.TenantBurst, maxTenants, reg.Counter("ratelimit_evictions_total")),
		pool:    newPlannerPool(cfg.Seed),
		slo:     obs.NewSLO(cfg.SLO),
	}
	if !cfg.DisableTelemetry {
		s.tel = newTelemetry(cfg, reg, s.slo)
	}
	route := func(name string, fn computeFn) http.Handler {
		h := s.endpoint(name, fn)
		if s.tel != nil {
			h = s.tel.instrument(name, h)
		}
		return h
	}
	s.mux.Handle("/v1/advise", route("advise", s.computeAdvise))
	s.mux.Handle("/v1/plan", route("plan", s.computePlan))
	s.mux.Handle("/v1/qos", route("qos", s.computeQoS))
	s.mux.Handle("/v1/joint", route("joint", s.computeJoint))
	s.mux.Handle("/v1/mixed", route("mixed", s.computeMixed))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.ready.Load() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	})
	s.mux.Handle("/metrics", obs.MetricsHandler(reg))
	s.mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.slo.Status())
	})
	if cfg.EnableDebug {
		s.mux.Handle("/debug/", obs.DebugMux(reg))
	}
	s.reg.RegisterCollector(obs.GoRuntimeCollector())
	s.reg.RegisterCollector(obs.SLOCollector(s.slo))
	s.reg.RegisterCollector(s.stateCollector())
	return s, nil
}

// stateCollector mirrors the daemon's state into the registry at scrape time,
// so no request refreshes a gauge nobody is reading: admission depth, and the
// limiter and planner-pool sizes.
func (s *Server) stateCollector() obs.Collector {
	return func(r *obs.Registry) {
		r.Gauge("http_queue_depth").Set(float64(s.adm.queued()))
		r.Gauge("http_inflight").Set(float64(s.adm.inFlight()))
		r.Gauge("ratelimit_tenants").Set(float64(s.tenants.size()))
		r.Gauge("planner_models").Set(float64(s.pool.size()))
	}
}

// Handler returns the service mux (for tests and custom listeners).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry the server reports into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Run serves on ln until ctx is cancelled, then drains gracefully:
//
//	ctx cancelled → /readyz flips to 503
//	             → DrainGrace elapses (load balancers stop routing)
//	             → listener stops accepting; in-flight requests finish
//	             → DrainTimeout at the latest: remaining connections cut
//
// It returns nil after a clean drain; the error otherwise.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
		MaxHeaderBytes:    1 << 16,
	}
	s.ready.Store(true)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	s.log.Info("serve: listening", "addr", ln.Addr().String(),
		"max_inflight", s.cfg.MaxInFlight, "max_queue", s.cfg.MaxQueue)
	select {
	case err := <-errCh:
		s.ready.Store(false)
		return fmt.Errorf("server: listener failed: %w", err)
	case <-ctx.Done():
	}
	s.ready.Store(false)
	s.log.Info("serve: drain started", "grace", s.cfg.DrainGrace, "timeout", s.cfg.DrainTimeout)
	if s.cfg.DrainGrace > 0 {
		time.Sleep(s.cfg.DrainGrace)
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
		return fmt.Errorf("server: drain exceeded %s: %w", s.cfg.DrainTimeout, err)
	}
	<-errCh // http.ErrServerClosed from the Serve goroutine
	s.log.Info("serve: drained cleanly")
	return nil
}
