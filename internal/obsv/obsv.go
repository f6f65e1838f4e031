// Package obsv is the live observability layer of the FFMR repo: where
// internal/trace records what a run *did* — spans, decision events and
// crash dumps, the one authoritative record — obsv shows what the
// system is doing *right now*, the role Hadoop's live counters and job
// UI played for the paper's measurements.
//
// It provides two pieces, both optional and both off in the zero state:
//
//   - structured logging for humans: log/slog loggers with contextual
//     fields (run/round/job/task/worker/exec) threaded through the
//     engines, with a shared no-op logger so instrumented code never
//     nil-checks;
//   - an admin HTTP server exposing /metrics (Prometheus text exposition
//     backed by the live trace.Registry), /healthz, /status (JSON view
//     of workers, leases and job progress), /flight (a live trace dump)
//     and /debug/pprof.
//
// The package depends only on the standard library, internal/rpcutil and
// internal/trace. Every entry point tolerates its zero value: a nil
// *slog.Logger becomes the no-op logger via Or, and an empty Options
// starts no servers, so the instrumented hot paths cost one predictable
// branch when observability is disabled.
package obsv

import (
	"context"
	"io"
	"log/slog"
	"strings"
)

// Options bundles the observability configuration a component receives.
// The zero value disables everything at no hot-path cost.
type Options struct {
	// Logger receives structured log records (nil: logging off; use Or
	// to obtain the shared no-op logger).
	Logger *slog.Logger
	// AdminAddr, when non-empty, serves /metrics, /healthz, /status and
	// /debug/pprof on that address ("127.0.0.1:0" for an ephemeral port).
	AdminAddr string
	// FlightDir, when non-empty, is where a component that dies from an
	// injected crash writes its tracer's dump (trace.Tracer.WriteDump).
	FlightDir string
}

// nopHandler is a slog.Handler that drops everything. Enabled returns
// false, so argument formatting is skipped entirely on the no-op path.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLogger = slog.New(nopHandler{})

// Nop returns the shared no-op logger.
func Nop() *slog.Logger { return nopLogger }

// Or returns l, or the shared no-op logger when l is nil. Components
// resolve their configured logger once through Or and then log
// unconditionally; with logging off the no-op handler's Enabled short-
// circuits before any argument is formatted.
func Or(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l
}

// NewLogger builds a logger writing to w in the given format ("text" or
// "json") at the given minimum level. An unknown format falls back to
// text. Timestamps are kept: live logs are for operators.
func NewLogger(w io.Writer, format string, level slog.Level) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if strings.EqualFold(format, "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// ParseLevel maps a -log-level flag value to a slog.Level (debug, info,
// warn, error; defaults to info for unknown strings).
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}
