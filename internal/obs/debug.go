package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux builds the Go diagnostic mux shared by the CLI's -debug.addr
// server and the serve daemon (which mounts it on its main listener instead
// of running a second server):
//
//	/debug/pprof/...  CPU, heap, goroutine, block profiles
//	/debug/vars       expvar: the Go runtime's own variables
//	/metrics          Prometheus text exposition of reg (absent when reg
//	                  is nil) — see MetricsHandler
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	if reg != nil {
		mux.Handle("/metrics", MetricsHandler(reg))
	}
	return mux
}

// debugShutdownTimeout bounds how long StartDebug's stop function waits for
// in-flight scrapes (a pprof profile capture can be seconds long) before
// hard-closing.
const debugShutdownTimeout = 5 * time.Second

// StartDebug serves DebugMux(reg) on addr for profiling long simulations
// and local runs. It returns the bound address (useful with ":0"), a stop
// function, and any listen error. The stop function shuts the server down
// gracefully — it stops accepting, waits up to debugShutdownTimeout for
// in-flight requests (a profile mid-capture finishes instead of being cut),
// then closes whatever remains — so callers no longer leak the server on
// exit.
func StartDebug(addr string, reg *Registry) (string, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugMux(reg)}
	go func() { _ = srv.Serve(l) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), debugShutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
		return nil
	}
	return l.Addr().String(), stop, nil
}
