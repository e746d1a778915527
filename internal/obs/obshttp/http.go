// Package obshttp serves live introspection for the real-time engine:
// the Prometheus text exposition of the metrics registry — its
// counters, gauges and histograms, the one telemetry read path — and
// the standard net/http/pprof profiling handlers, on an opt-in
// listener.
//
// This package is deliberately outside taqvet's deterministic set — it
// exists only for the wall-clock prototype (internal/emu) and must
// never be imported by the discrete-event path. The snapshot callback
// it is given is invoked on HTTP-serving goroutines; callers must
// serialize it against the engine themselves (internal/emu posts the
// registry snapshot onto the engine, because registry counter and
// gauge families read engine-owned state).
package obshttp

import (
	"net"
	"net/http"
	"net/http/pprof"

	"taq/internal/obs"
)

// Options selects which introspection surfaces the endpoint exposes.
// Nil members leave their route unregistered.
type Options struct {
	// Metrics backs /metrics, the Prometheus text exposition. The
	// callback typically runs an *obs.Registry's Snapshot on the
	// engine that owns the state it reads (emu.Engine.Post). A
	// sharded middlebox calls its bank's MergedSnapshot instead, which
	// takes every shard's engine lock and folds the per-shard
	// registries (obs.MergedSnapshot); the write path never crosses
	// shards.
	Metrics func() *obs.MetricsSnapshot
}

// NewMux builds the introspection handler without a listener, for
// httptest-driven tests and embedding:
//
//	/metrics       — Prometheus text-format exposition
//	/debug/pprof/  — the net/http/pprof handlers
//
// The pprof handlers are registered explicitly on a private mux so
// importing this package never touches http.DefaultServeMux.
func NewMux(opts Options) *http.ServeMux {
	mux := http.NewServeMux()
	if opts.Metrics != nil {
		metrics := opts.Metrics
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			metrics().WriteText(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server on addr (e.g. "127.0.0.1:0") exposing
// the routes NewMux registers for opts.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewMux(opts)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the listener's address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down. Safe on a nil receiver.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
