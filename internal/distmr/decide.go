package distmr

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"ffmr/internal/trace"
)

// Metric names for telemetry the cluster loses rather than records.
const (
	// CounterSpanBatchesLost counts drained span batches a worker still
	// held, unshipped, when it died.
	CounterSpanBatchesLost = "distmr span batches lost"
)

// decide reports one scheduling or fault decision (a reassignment, a
// failed attempt, a lost map, a hand-off, a death, a crash)
// to both streams: slog for humans, and, when tr is non-nil, an event
// span under parent (nil: a root event) for the trace, which is the
// record crash dumps and `ffmr -analyze` read. Routine progress lines
// stay slog-only, so a fault-free run records no events.
func decide(log *slog.Logger, tr *trace.Tracer, parent *trace.Span, level slog.Level, msg string, kv ...any) {
	log.Log(context.Background(), level, msg, kv...)
	tr.Event(parent, msg, kv...)
}

// writeDump writes tr's dump (trace.Tracer.WriteDump) into dir as
// dump-<source>-<nanos>.json and returns its path.
func writeDump(tr *trace.Tracer, dir, source, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("dump-%s-%d.json", source, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteDump(f, source, reason); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
