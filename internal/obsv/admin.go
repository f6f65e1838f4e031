package obsv

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"

	"ffmr/internal/rpcutil"
	"ffmr/internal/trace"
)

// AdminConfig configures an admin HTTP server.
type AdminConfig struct {
	// Addr is the listen address (default 127.0.0.1:0).
	Addr string
	// Tracer supplies the tracer whose registry /metrics renders on every
	// scrape and whose dump /flight serves — the live view of what a
	// crash dump would contain. A func rather than a value because the
	// distributed master swaps tracers when a job installs the cluster's.
	// Nil (or returning nil) serves an empty exposition and dump.
	Tracer func() *trace.Tracer
	// Status supplies the /status payload (nil: an empty object).
	Status func() *ClusterStatus
	// Logger logs serve errors (nil: silent).
	Logger *slog.Logger
}

// Admin is a running admin HTTP server. Create with StartAdmin; Close
// shuts it down and releases every connection.
type Admin struct {
	srv *rpcutil.HTTPServer
}

// StartAdmin binds the admin address and serves the observability
// endpoints: /metrics, /healthz, /status, /flight and /debug/pprof/*.
// The server lifecycle (bind-before-return, header timeouts, graceful
// drain then hard close) is the shared rpcutil HTTP harness.
func StartAdmin(cfg AdminConfig) (*Admin, error) {
	log := Or(cfg.Logger)
	tracer := func() *trace.Tracer {
		if cfg.Tracer == nil {
			return nil
		}
		return cfg.Tracer()
	}
	status := func() *ClusterStatus {
		if cfg.Status != nil {
			if s := cfg.Status(); s != nil {
				return s
			}
		}
		return &ClusterStatus{}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteMetrics(w, tracer().Registry()); err != nil {
			log.Warn("metrics write failed", "err", err)
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(status()); err != nil {
			log.Warn("status write failed", "err", err)
		}
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := tracer().WriteDump(w, status().Role, "live"); err != nil {
			log.Warn("flight write failed", "err", err)
		}
	})
	// The pprof handlers, on the explicit mux (the server must not use
	// http.DefaultServeMux, which other packages can pollute). Index
	// dispatches /debug/pprof/<profile> for the named runtime profiles.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv, err := rpcutil.ServeHTTP(rpcutil.HTTPConfig{
		Addr:    cfg.Addr,
		Handler: mux,
		Logger:  cfg.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("obsv: admin server: %w", err)
	}
	return &Admin{srv: srv}, nil
}

// Addr returns the server's bound address (for curl and tests).
func (a *Admin) Addr() string {
	if a == nil {
		return ""
	}
	return a.srv.Addr()
}

// URL returns the server's base URL ("http://host:port").
func (a *Admin) URL() string {
	if a == nil {
		return ""
	}
	return a.srv.URL()
}

// Close shuts the server down: a short graceful drain for in-flight
// scrapes, then a hard close so no goroutine or connection outlives the
// owner (the leak checks depend on this).
func (a *Admin) Close() error {
	if a == nil {
		return nil
	}
	return a.srv.Close()
}
