package distmr

import (
	"fmt"
	"sync"
	"time"

	"ffmr/internal/obsv"
	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// HarnessConfig configures an in-process cluster: a master plus N workers
// on real TCP sockets inside one process. Tests and the differential
// harness use it to exercise the full wire protocol without spawning
// processes.
type HarnessConfig struct {
	// Workers is how many workers to start (default 3).
	Workers int
	// Replace restarts a fresh worker whenever one dies from injected
	// WorkerCrashRate, the way a cluster re-provisions dead tasktrackers;
	// jobs with crash injection can then always finish.
	Replace bool
	// Master overrides the master configuration. Leave Master.Addr empty
	// for an ephemeral loopback port; set it to also accept external
	// worker processes on a known address.
	Master Config
	// Tracer is handed to the master. Workers own private tracers whose
	// spans and histograms ship back on heartbeats (DESIGN.md §9), so
	// the master's trace ends up showing both sides either way.
	Tracer *trace.Tracer
	// NewStore builds each worker's segment store (default in-memory).
	NewStore func() spill.RunStore
	// WorkerObsv is handed to every worker (replacements included). Use
	// an ephemeral AdminAddr like "127.0.0.1:0" — each worker binds its
	// own port. Master observability is configured via Master.Obsv.
	WorkerObsv obsv.Options
}

// Harness is a running in-process master/worker cluster.
type Harness struct {
	Master *Master

	cfg HarnessConfig

	mu      sync.Mutex
	workers []*Worker
	closed  bool
}

// StartHarness boots a master and its workers, returning once every
// worker has registered.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	mcfg := cfg.Master
	if mcfg.Tracer == nil {
		mcfg.Tracer = cfg.Tracer
	}
	m, err := NewMaster(mcfg)
	if err != nil {
		return nil, err
	}
	h := &Harness{Master: m, cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		if _, err := h.startWorker(); err != nil {
			h.Close()
			return nil, err
		}
	}
	if err := m.WaitForWorkers(cfg.Workers, 10*time.Second); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

func (h *Harness) startWorker() (*Worker, error) {
	wcfg := WorkerConfig{
		MasterAddr: h.Master.Addr(),
		Obsv:       h.cfg.WorkerObsv,
	}
	if h.cfg.NewStore != nil {
		wcfg.Store = h.cfg.NewStore()
	}
	if h.cfg.Replace {
		wcfg.OnDeath = func(*Worker) { h.replaceWorker() }
	}
	w, err := StartWorker(wcfg)
	if err != nil {
		return nil, fmt.Errorf("distmr: harness worker: %w", err)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		w.Close()
		return nil, fmt.Errorf("distmr: harness closed")
	}
	h.workers = append(h.workers, w)
	h.mu.Unlock()
	return w, nil
}

// replaceWorker spawns a substitute for a crashed worker. Failures are
// dropped: if the master is shutting down there is nothing to replace
// for, and a running job will fail its no-live-worker wait instead.
func (h *Harness) replaceWorker() {
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed {
		return
	}
	h.startWorker() //nolint:errcheck // best-effort re-provisioning
}

// AddWorker starts one additional worker mid-flight — an elastic
// scale-up. The new worker registers with the master and is immediately
// eligible for pending leases and shuffle serving.
func (h *Harness) AddWorker() (*Worker, error) {
	return h.startWorker()
}

// Workers returns the currently tracked workers (dead ones included until
// Close prunes them).
func (h *Harness) Workers() []*Worker {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Worker(nil), h.workers...)
}

// Close shuts the cluster down: master first (so workers stop receiving
// work), then every worker, waiting for each to fully exit so leak checks
// are clean.
func (h *Harness) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	workers := h.workers
	h.workers = nil
	h.mu.Unlock()

	h.Master.Shutdown()
	for _, w := range workers {
		w.Close()
	}
	for _, w := range workers {
		w.Wait()
	}
}
