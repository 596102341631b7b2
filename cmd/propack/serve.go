package main

import (
	"context"
	"flag"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// cmdServe runs the planner as a long-lived HTTP daemon (internal/server):
// one process profiles each (app, platform) pair once and then answers
// planning queries from its caches, behind admission control, per-tenant
// rate limits, and graceful drain on SIGTERM/SIGINT.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	maxInFlight := fs.Int("maxinflight", 32, "admission capacity: concurrently executing requests")
	maxQueue := fs.Int("maxqueue", 0, "queued-request watermark before shedding (0 = 2×maxinflight)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	tenantRPS := fs.Float64("tenantrps", 50, "per-tenant sustained requests/sec (negative disables rate limiting)")
	tenantBurst := fs.Float64("tenantburst", 100, "per-tenant burst size in requests")
	drainGrace := fs.Duration("draingrace", 0, "keep serving this long after /readyz flips to 503, so load balancers stop routing first")
	drainTimeout := fs.Duration("draintimeout", 30*time.Second, "bound on draining in-flight requests at shutdown")
	seed := fs.Int64("seed", 1, "simulation seed behind model building")
	debug := fs.Bool("debug", false, "mount /debug/pprof and /debug/vars on the serving listener (/metrics and /slo are always mounted)")
	verbose := fs.Bool("v", false, "debug logging")
	logfmt := fs.String("logfmt", "text", "log format: text or json")
	accessLog := fs.Bool("accesslog", false, "log one structured line per /v1 request (request ID, route, status, duration)")
	events := fs.String("events", "", "append per-request trace spans as JSONL to this file (same schema as the simulator's -events)")
	sloAvail := fs.Float64("slo.availability", 0.999, "SLO: target fraction of requests without server-side failure")
	sloLatTarget := fs.Float64("slo.latencytarget", 0.95, "SLO: target fraction of successful requests within -slo.latencythreshold")
	sloLatThreshold := fs.Duration("slo.latencythreshold", 250*time.Millisecond, "SLO: latency objective threshold")
	testHooks := fs.Bool("testhooks", false, "enable the delayms/panic fault-injection query params (e2e tests only; never in production)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logfmt, *verbose)
	if err != nil {
		return err
	}
	cfg := server.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *timeout,
		TenantRPS:      *tenantRPS,
		TenantBurst:    *tenantBurst,
		DrainGrace:     *drainGrace,
		DrainTimeout:   *drainTimeout,
		Seed:           *seed,
		Log:            logger,
		EnableDebug:    *debug,
		TestHooks:      *testHooks,
		SLO: obs.SLOConfig{Objectives: obs.SLOObjectives{
			Availability:        *sloAvail,
			LatencyTarget:       *sloLatTarget,
			LatencyThresholdSec: sloLatThreshold.Seconds(),
		}},
	}
	if *accessLog {
		cfg.AccessLog = logger
	}
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		rec := obs.NewJSONL(f)
		defer func() {
			if err := rec.Err(); err != nil {
				logger.Error("serve: event stream write failed", "err", err)
			}
		}()
		cfg.Trace = rec
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// SIGTERM (orchestrators) and SIGINT (^C) both start the graceful drain;
	// Run returns nil once every in-flight request has been answered.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	return s.Run(ctx, ln)
}
