package distmr

import (
	"fmt"
	"log/slog"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"ffmr/internal/dfs"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/rpcutil"
	"ffmr/internal/trace"
)

// Metric names the master publishes on the cluster tracer's registry.
const (
	// GaugeWorkersAlive tracks the live worker count.
	GaugeWorkersAlive = "distmr workers alive"
	// CounterWorkerDeaths counts workers declared dead (crash, transport
	// failure, heartbeat staleness or lease expiry).
	CounterWorkerDeaths = "distmr worker deaths"
	// CounterReassigns counts task reassignments after a worker death.
	CounterReassigns = "distmr reassignments"
	// CounterBackups counts speculative backup attempts launched.
	CounterBackups = "distmr speculative backups"
	// CounterLostMapRecoveries counts map tasks re-executed because their
	// outputs became unreachable.
	CounterLostMapRecoveries = "distmr lost map recoveries"
	// GaugeWorkersDraining tracks workers currently draining.
	GaugeWorkersDraining = "distmr workers draining"
	// CounterDrains counts drains completed (worker deregistered after
	// hand-off); CounterHandoffSegments counts spill objects (each
	// holding a segment per partition) handed off through DFS so
	// completed map tasks were not re-executed.
	CounterDrains          = "distmr drains completed"
	CounterHandoffSegments = "distmr handoff segments"
	// CounterRestoredTasks counts task winners rehydrated from
	// DFS-persisted job state after a master restart.
	CounterRestoredTasks = "distmr restored tasks"
	// CounterPrefetchPushes counts shuffle-prefetch hints pushed to
	// workers as map winners complete (the pipelined shuffle).
	CounterPrefetchPushes = "distmr prefetch pushes"
	// CounterCompletionBatches counts heartbeats that carried at least
	// one task completion; comparing it against total completions shows
	// how well the batching amortizes the per-completion RPC tax.
	CounterCompletionBatches = "distmr completion batches"

	// Latency histogram names (nanoseconds, DESIGN.md §14). The worker-
	// side ones are recorded on each worker's private registry and merged
	// into the cluster registry — under the same names — as absolute
	// snapshots shipped on heartbeats; the master-side ones are recorded
	// directly.
	//
	// HistTaskServiceNS is worker task service time (receipt to result);
	// HistShuffleFetchNS is one shuffle segment fetch (prefetch or reduce
	// path); HistHeartbeatRTTNS is the worker-measured heartbeat round
	// trip; HistStartTaskNS is the master-measured Worker.StartTask round
	// trip; HistQueueWaitNS is scheduler queue wait (enqueue to launch).
	HistTaskServiceNS  = "distmr task service ns"
	HistShuffleFetchNS = "distmr shuffle fetch ns"
	HistHeartbeatRTTNS = "distmr heartbeat rtt ns"
	HistStartTaskNS    = "distmr rpc start task ns"
	HistQueueWaitNS    = "distmr queue wait ns"
)

// Config parameterizes a Master. The zero value gets usable defaults.
type Config struct {
	// Addr is the listen address (default 127.0.0.1:0).
	Addr string
	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 100ms); HeartbeatGrace is how many intervals of silence
	// mark a worker dead (default 30).
	HeartbeatInterval time.Duration
	HeartbeatGrace    int
	// LeaseTimeout bounds one task attempt's execution; an expired lease
	// marks the worker dead and reassigns the task (default 2m).
	LeaseTimeout time.Duration
	// SlotsPerWorker caps concurrent tasks per worker (default: the
	// cluster's SlotsPerNode).
	SlotsPerWorker int
	// SpeculativeFraction and SpeculativeFactor gate backup attempts: a
	// backup launches when at least Fraction of the phase's tasks are
	// done and a task has run longer than Factor times the median
	// completed duration (defaults 0.75 and 2.0).
	SpeculativeFraction float64
	SpeculativeFactor   float64
	// MaxAssigns caps how many times one task may be (re)assigned across
	// worker deaths before the job fails (default 10). Body failures are
	// capped separately by Faults.MaxAttempts, matching the simulated
	// engine.
	MaxAssigns int
	// WorkerWait is how long a job waits for a live worker before
	// failing (default 30s).
	WorkerWait time.Duration
	// DeadRetention is how long a dead or drained worker's registry entry
	// survives for /status and the dashboard before the janitor expires
	// it (default 10 heartbeat intervals). Without expiry the snapshot
	// would list dead workers until job end.
	DeadRetention time.Duration
	// DisablePrefetch turns off the pipelined shuffle: no prefetch hints
	// are pushed as map winners complete, and reduces fetch all their
	// segments on dispatch. Counters are identical either way (prefetch
	// only changes wall-clock overlap, DESIGN.md §13); the knob exists
	// for A/B measurement and as an escape hatch.
	DisablePrefetch bool
	// PersistState makes every job persist its task winners (manifests
	// plus map output segments) to the cluster DFS as they complete, and
	// rehydrate them at job start. A restarted master pointed at the same
	// DFS then resumes a job without re-executing completed tasks, and an
	// epoch counter keeps (task, exec) submission keys from colliding
	// across master generations. Off by default: it costs one extra copy
	// of each map output over the wire.
	PersistState bool
	// Tracer records master-side spans/gauges until a job installs the
	// cluster's tracer.
	Tracer *trace.Tracer
	// Obsv configures the master's observability surface: structured
	// logging, the admin HTTP server (/metrics, /healthz, /status,
	// /debug/pprof) and the flight recorder. The zero value disables all
	// of it at no cost.
	Obsv obsv.Options
}

func (c *Config) applyDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatGrace <= 0 {
		c.HeartbeatGrace = 30
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2 * time.Minute
	}
	if c.SpeculativeFraction <= 0 {
		c.SpeculativeFraction = 0.75
	}
	if c.SpeculativeFactor <= 1 {
		c.SpeculativeFactor = 2.0
	}
	if c.MaxAssigns <= 0 {
		c.MaxAssigns = 10
	}
	if c.WorkerWait <= 0 {
		c.WorkerWait = 30 * time.Second
	}
	if c.DeadRetention <= 0 {
		c.DeadRetention = 10 * c.HeartbeatInterval
	}
}

// workerState is the master-side membership state machine:
//
//	joining → live → draining → drained → (expired)
//	             ↘︎      ↘︎ dead → (expired)
//
// "joining" is implicit (Register dials the worker back before the
// handle exists, so a registered worker is always reachable). Only live
// workers are schedulable; a draining worker finishes its running
// attempts and serves fetches but receives no new leases. Dead and
// drained handles linger for DeadRetention so /status and the dashboard
// can show the transition, then the janitor expires them.
type workerState uint8

const (
	stateLive workerState = iota
	stateDraining
	stateDead
	stateDrained
)

// String names the state as /status reports it.
func (s workerState) String() string {
	switch s {
	case stateLive:
		return "live"
	case stateDraining:
		return "draining"
	case stateDead:
		return "dead"
	default:
		return "drained"
	}
}

// workerHandle is the master's view of one registered worker. running is
// the master's own in-flight dispatch count (slot accounting); the hb*
// fields mirror the worker's last self-reported heartbeat and feed the
// /status view.
type workerHandle struct {
	id       uint64
	addr     string
	client   *rpc.Client
	lastBeat time.Time
	running  int
	state    workerState
	deadAt   time.Time // when the handle left live/draining (for expiry)

	hbRunning    int64
	hbTasksDone  int64
	hbStoreBytes int64
	hbPrefetched int64

	// Cached per-worker gauges, interned once per registry instead of a
	// fmt.Sprintf + registry lookup on every beat (the beat is the
	// steady-state hot path). gaugeReg remembers which registry the
	// cache belongs to; a job installing the cluster's registry
	// invalidates it. Guarded by the master's mu.
	gaugeReg *trace.Registry
	gRunning *trace.Gauge
	gStoreB  *trace.Gauge

	// Telemetry-shipping state (§14). Worker beats are synchronous (one
	// in flight per worker), but telMu still guards this block: a
	// re-registration hands the maps to the successor handle while a last
	// stale beat may be in the handler. lastSpanSeq dedups at-least-once
	// span batches; lastCounters/lastHists hold the worker's previous
	// absolute snapshots so only diffs merge into the registry; bestRTT
	// and clockOffset estimate the worker's wall-clock skew from the
	// lowest-RTT beat sample (offset = recv - (sent + rtt/2)).
	telMu        sync.Mutex
	lastSpanSeq  uint64
	lastCounters map[string]int64
	lastHists    map[string]trace.HistogramValue
	bestRTT      int64
	clockOffset  int64
}

// alive reports whether the worker still participates in the cluster
// (serving fetches and finishing leases); draining workers count.
func (w *workerHandle) alive() bool {
	return w.state == stateLive || w.state == stateDraining
}

// Master schedules jobs onto registered workers. It implements
// mapreduce.Backend, so assigning it to Cluster.Distributed routes every
// Cluster.Run through it.
type Master struct {
	cfg    Config
	ln     net.Listener
	log    *slog.Logger
	admin  *obsv.Admin
	flight *obsv.FlightRecorder
	// instance is this master instance's nonce, handed to workers at
	// registration and echoed in every heartbeat. Worker ids restart at 1
	// per instance, so after a master restart a stale worker's old id can
	// equal a re-registered worker's new one; the nonce check keeps the
	// stale worker on the Unknown path instead of refreshing the wrong
	// record.
	instance uint64

	mu        sync.Mutex
	workers   map[uint64]*workerHandle
	nextID    uint64
	jobSeq    uint64
	conns     map[net.Conn]struct{}
	fs        *dfs.FS
	reg       *trace.Registry
	shut      bool
	jobActive bool // a jobRun owns drain completion while true

	// statusMu guards the snapshot the running job publishes for /status.
	// It is separate from mu: the scheduler goroutine owns the job state
	// and only ever hands immutable snapshots across this lock, so the
	// admin server never reads scheduler internals.
	statusMu  sync.Mutex
	jobStatus *obsv.JobStatus
	jobIdle   float64 // running job's live idle-fraction estimate

	shutOnce sync.Once
	shutCh   chan struct{}

	// sinkMu guards the completion sink: the jobRun currently entitled to
	// task completions arriving on heartbeats. Setting the sink after the
	// job's pre-dispatch state (assignBase, task slices) is in place
	// creates the happens-before edge heartbeat handlers rely on.
	sinkMu sync.Mutex
	sink   *jobRun

	runMu sync.Mutex // serializes RunJob (the driver runs rounds in order)
}

// setSink installs (or, with nil, retires) the running job as the
// destination for heartbeat-carried task completions.
func (m *Master) setSink(jr *jobRun) {
	m.sinkMu.Lock()
	m.sink = jr
	m.sinkMu.Unlock()
}

func (m *Master) getSink() *jobRun {
	m.sinkMu.Lock()
	defer m.sinkMu.Unlock()
	return m.sink
}

// NewMaster starts a master listening for worker registrations.
func NewMaster(cfg Config) (*Master, error) {
	cfg.applyDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("distmr: master listen: %w", err)
	}
	var flight *obsv.FlightRecorder
	if cfg.Obsv.FlightDir != "" {
		flight = obsv.NewFlightRecorder("master", cfg.Obsv.FlightSize)
	}
	var next slog.Handler
	if cfg.Obsv.Logger != nil {
		next = cfg.Obsv.Logger.Handler()
	}
	// The instance nonce distinguishes master generations: heartbeats
	// carrying another generation's nonce are answered Unknown (so workers
	// re-register), and seeding jobSeq from it keeps job sequence numbers
	// — which key the workers' per-job code caches and prefix every spill
	// segment name — globally unique across generations. Without that, a
	// restarted master's counter would restart at 1 and its jobs would
	// collide with segments and cached code left behind by jobs of the
	// dead generation that were never cleaned up.
	nonce := uint64(time.Now().UnixNano())
	m := &Master{
		cfg:      cfg,
		ln:       ln,
		log:      slog.New(flight.Handler(next)).With("role", "master"),
		flight:   flight,
		instance: nonce,
		jobSeq:   nonce,
		workers:  make(map[uint64]*workerHandle),
		conns:    make(map[net.Conn]struct{}),
		reg:      cfg.Tracer.Registry(),
		shutCh:   make(chan struct{}),
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", &masterService{m: m}); err != nil {
		ln.Close()
		return nil, fmt.Errorf("distmr: master register service: %w", err)
	}
	if cfg.Obsv.AdminAddr != "" {
		admin, err := obsv.StartAdmin(obsv.AdminConfig{
			Addr:    cfg.Obsv.AdminAddr,
			Metrics: m.registry,
			Status:  m.Status,
			Flight:  flight,
			Logger:  m.log,
		})
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("distmr: master admin server: %w", err)
		}
		m.admin = admin
		m.log.Info("admin server listening", "addr", admin.Addr())
	}
	m.log.Info("master listening", "addr", ln.Addr().String())
	go m.accept(srv)
	go m.janitor()
	return m, nil
}

// janitor is the master's background membership sweep: it marks silent
// workers dead, completes idle drains (a running job completes its own,
// because hand-off needs the job's winner map), and expires dead or
// drained registry entries after DeadRetention so /status stops listing
// them. It runs for the master's whole life, not just during jobs.
func (m *Master) janitor() {
	t := time.NewTicker(m.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-m.shutCh:
			return
		case <-t.C:
			m.checkHeartbeats()
			m.completeIdleDrains()
			m.expireDead()
		}
	}
}

// AdminAddr returns the admin HTTP server's address, or "" when no admin
// server was configured.
func (m *Master) AdminAddr() string {
	if m.admin == nil {
		return ""
	}
	return m.admin.Addr()
}

// Addr returns the master's listen address for workers to register at.
func (m *Master) Addr() string { return m.ln.Addr().String() }

func (m *Master) accept(srv *rpc.Server) {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.shut {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.conns[conn] = struct{}{}
		m.mu.Unlock()
		go func() {
			srv.ServeCodec(rpcutil.NewServerCodec(conn))
			m.mu.Lock()
			delete(m.conns, conn)
			m.mu.Unlock()
			conn.Close()
		}()
	}
}

// Shutdown stops the master: workers are told to exit (directly and via
// their next heartbeat), all connections close, and any running job
// fails promptly.
func (m *Master) Shutdown() {
	m.stopMaster(true)
}

// Crash kills the master the way a machine failure would: the listener,
// every connection and every worker client close, but no worker is told
// to exit and no goodbye travels. Workers keep heartbeating into the
// void until their miss budget runs out (or a new master at the same
// address answers Unknown and they re-register). The chaos supervisor
// uses this to exercise master-restart recovery against DFS-persisted
// job state.
func (m *Master) Crash() {
	m.stopMaster(false)
}

// stopMaster is the single teardown path; graceful additionally notifies
// workers.
func (m *Master) stopMaster(graceful bool) {
	m.shutOnce.Do(func() {
		reason := "shutdown"
		if !graceful {
			reason = "crash"
			m.log.Error("master crashing (injected)")
		} else {
			m.log.Info("master shutting down")
		}
		m.admin.Close()
		if m.flight != nil && m.cfg.Obsv.FlightDir != "" {
			if _, err := m.flight.Dump(m.cfg.Obsv.FlightDir, reason); err != nil {
				m.log.Warn("flight dump failed", "err", err)
			}
		}
		m.mu.Lock()
		m.shut = true
		workers := make([]*workerHandle, 0, len(m.workers))
		for _, w := range m.workers {
			if w.alive() {
				workers = append(workers, w)
			}
		}
		conns := make([]net.Conn, 0, len(m.conns))
		for c := range m.conns {
			conns = append(conns, c)
		}
		m.mu.Unlock()
		close(m.shutCh)
		for _, w := range workers {
			if graceful {
				// Best-effort: a dead worker's call just errors out.
				call := w.client.Go("Worker.Shutdown", &Empty{}, &Empty{}, make(chan *rpc.Call, 1))
				select {
				case <-call.Done:
				case <-time.After(500 * time.Millisecond):
				}
			}
			w.client.Close()
		}
		m.ln.Close()
		for _, c := range conns {
			c.Close()
		}
	})
}

// registry returns the current trace registry (the cluster's once a job
// has run, the config's before). All registry methods are nil-safe.
func (m *Master) registry() *trace.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg
}

// setJobStatus publishes (or, with nil, retires) the running job's status
// snapshot for the admin server, along with the scheduler's live idle-
// fraction estimate. Snapshots are immutable once handed over.
func (m *Master) setJobStatus(js *obsv.JobStatus, idle float64) {
	m.statusMu.Lock()
	m.jobStatus = js
	m.jobIdle = idle
	m.statusMu.Unlock()
}

// Status assembles the cluster view served at /status: every registered
// worker (heartbeat-reported load, liveness) plus the running job's
// latest scheduler snapshot.
func (m *Master) Status() *obsv.ClusterStatus {
	st := &obsv.ClusterStatus{Role: "master", Addr: m.Addr()}
	m.mu.Lock()
	ids := make([]uint64, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	hints := &obsv.ScalingHints{}
	var tasksDone int64
	for _, id := range ids {
		w := m.workers[id]
		switch w.state {
		case stateLive:
			st.WorkersAlive++
			hints.WorkersLive++
		case stateDraining:
			st.WorkersAlive++
			hints.WorkersDraining++
		}
		tasksDone += w.hbTasksDone
		st.Workers = append(st.Workers, obsv.WorkerStatus{
			ID:         w.id,
			Addr:       w.addr,
			Running:    w.hbRunning,
			TasksDone:  w.hbTasksDone,
			Prefetched: w.hbPrefetched,
			StoreBytes: w.hbStoreBytes,
			LastBeatMS: time.Since(w.lastBeat).Milliseconds(),
			Dead:       w.state == stateDead || w.state == stateDrained,
			State:      w.state.String(),
		})
	}
	reg := m.reg
	m.mu.Unlock()
	m.statusMu.Lock()
	st.Job = m.jobStatus
	hints.IdleFraction = m.jobIdle
	m.statusMu.Unlock()
	if st.Job != nil {
		hints.QueueDepth = st.Job.Queued
		hints.InFlight = st.Job.InFlight
	}
	// p95 scheduler queue wait: the under-provisioning half of the signal
	// (a deep queue AND growing waits mean the cluster wants workers).
	if hv, ok := reg.HistogramSnapshot()[HistQueueWaitNS]; ok && hv.Count > 0 {
		hints.QueueWaitP95NS = hv.Quantile(0.95)
	}
	// Straggler ratio: speculative backups launched per completed task, a
	// scale-up signal (stragglers mean the fleet is unevenly loaded). The
	// denominator is heartbeat-reported, so it slightly lags the registry.
	if backups := reg.Counter(CounterBackups).Value(); backups > 0 && tasksDone > 0 {
		hints.StragglerRatio = float64(backups) / float64(tasksDone)
	}
	st.Hints = hints
	return st
}

// LiveWorkers returns the number of registered, schedulable workers
// (draining workers are excluded: they accept no new leases).
func (m *Master) LiveWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.workers {
		if w.state == stateLive {
			n++
		}
	}
	return n
}

// WaitForWorkers blocks until at least n workers are live or the timeout
// elapses.
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if m.LiveWorkers() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("distmr: %d workers did not register within %v (have %d)", n, timeout, m.LiveWorkers())
		}
		select {
		case <-m.shutCh:
			return fmt.Errorf("distmr: master shut down")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// markDead declares a worker dead: its client closes (unblocking every
// in-flight lease with a transport error) and it receives no more work.
// A draining worker can die too — its hand-off then never happens and
// its completed maps are recovered by re-execution like any crash.
func (m *Master) markDead(w *workerHandle) {
	m.mu.Lock()
	already := w.state == stateDead || w.state == stateDrained
	if !already {
		w.state = stateDead
		w.deadAt = time.Now()
	}
	m.mu.Unlock()
	if already {
		return
	}
	w.client.Close()
	reg := m.registry()
	reg.Counter(CounterWorkerDeaths).Add(1)
	reg.Gauge(GaugeWorkersAlive).Set(int64(m.LiveWorkers()))
	m.log.Warn("worker declared dead", "worker", w.id, "addr", w.addr,
		"alive", m.LiveWorkers())
}

// workerAlive reports, under the registry lock, whether w still
// participates in the cluster. The scheduler's lease scan uses it so the
// read of w.state is properly synchronized with state transitions.
func (m *Master) workerAlive(w *workerHandle) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return w.alive()
}

// checkHeartbeats marks workers silent for longer than the grace period
// dead.
func (m *Master) checkHeartbeats() {
	limit := time.Duration(m.cfg.HeartbeatGrace) * m.cfg.HeartbeatInterval
	var stale []*workerHandle
	m.mu.Lock()
	for _, w := range m.workers {
		if w.alive() && time.Since(w.lastBeat) > limit {
			stale = append(stale, w)
		}
	}
	m.mu.Unlock()
	for _, w := range stale {
		m.markDead(w)
	}
}

// retireWorker moves a live worker to draining. The actual drain
// completion — hand-off, then deregistration — happens in the running
// job's checkDrains (or the janitor when no job is running).
func (m *Master) retireWorker(id uint64, reason string) error {
	m.mu.Lock()
	w := m.workers[id]
	if w == nil {
		m.mu.Unlock()
		return fmt.Errorf("distmr: retire: unknown worker %d", id)
	}
	if w.state != stateLive {
		st := w.state
		m.mu.Unlock()
		return fmt.Errorf("distmr: retire: worker %d is %s", id, st)
	}
	w.state = stateDraining
	m.mu.Unlock()
	reg := m.registry()
	reg.Gauge(GaugeWorkersAlive).Set(int64(m.LiveWorkers()))
	reg.Gauge(GaugeWorkersDraining).Set(int64(len(m.drainingWorkers())))
	m.log.Info("worker draining", "worker", id, "reason", reason,
		"alive", m.LiveWorkers())
	return nil
}

// drainingWorkers snapshots the handles currently draining.
func (m *Master) drainingWorkers() []*workerHandle {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ws []*workerHandle
	for _, w := range m.workers {
		if w.state == stateDraining {
			ws = append(ws, w)
		}
	}
	return ws
}

// workerRunning returns the master's in-flight dispatch count for w.
func (m *Master) workerRunning(w *workerHandle) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return w.running
}

// completeDrain deregisters a drained worker: its next heartbeat is
// answered with Retired, telling it to exit cleanly. Only called once
// the worker has no running leases and its winning map output (if a job
// is running) has been handed off to DFS.
func (m *Master) completeDrain(w *workerHandle) {
	m.mu.Lock()
	if w.state != stateDraining {
		m.mu.Unlock()
		return
	}
	w.state = stateDrained
	w.deadAt = time.Now()
	m.mu.Unlock()
	w.client.Close()
	reg := m.registry()
	reg.Counter(CounterDrains).Add(1)
	reg.Gauge(GaugeWorkersDraining).Set(int64(len(m.drainingWorkers())))
	m.log.Info("worker drain complete", "worker", w.id, "addr", w.addr)
}

// completeIdleDrains finishes drains while no job is running: with no
// scheduler state there is nothing to hand off, so a lease-free draining
// worker deregisters immediately.
func (m *Master) completeIdleDrains() {
	m.mu.Lock()
	active := m.jobActive
	m.mu.Unlock()
	if active {
		return
	}
	for _, w := range m.drainingWorkers() {
		if m.workerRunning(w) == 0 {
			m.completeDrain(w)
		}
	}
}

// expireDead removes dead and drained workers from the registry after
// DeadRetention, so /status and the dashboard stop listing them. The
// scheduler holds its own handle pointers, so expiry never invalidates
// an in-flight lease's bookkeeping.
func (m *Master) expireDead() {
	m.mu.Lock()
	for id, w := range m.workers {
		if (w.state == stateDead || w.state == stateDrained) &&
			time.Since(w.deadAt) > m.cfg.DeadRetention {
			delete(m.workers, id)
			m.log.Debug("expired worker registry entry", "worker", id, "state", w.state.String())
		}
	}
	m.mu.Unlock()
}

// pickWorker returns the live worker with the most free slots, or nil.
// Draining, dead and drained workers are never picked.
func (m *Master) pickWorker(slots int, exclude *workerHandle) *workerHandle {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best *workerHandle
	ids := make([]uint64, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := m.workers[id]
		if w.state != stateLive || w == exclude || w.running >= slots {
			continue
		}
		if best == nil || w.running < best.running {
			best = w
		}
	}
	if best != nil {
		best.running++
	}
	return best
}

func (m *Master) release(w *workerHandle) {
	m.mu.Lock()
	w.running--
	m.mu.Unlock()
}

// pickWorkerPreferring is pickWorker with a placement hint: among the
// least-loaded eligible workers, the preferred one wins the tie, so
// reduce tasks land where their prefetched shuffle segments already
// sit. The hint never overrides load balance — a strictly less-loaded
// worker (a late joiner, say) still gets the task, which keeps elastic
// membership behavior identical with prefetch on or off.
func (m *Master) pickWorkerPreferring(slots int, exclude, prefer *workerHandle) *workerHandle {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best *workerHandle
	ids := make([]uint64, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := m.workers[id]
		if w.state != stateLive || w == exclude || w.running >= slots {
			continue
		}
		if best == nil || w.running < best.running {
			best = w
		}
	}
	if prefer != nil && prefer != exclude && prefer.state == stateLive &&
		prefer.running < slots && best != nil && prefer.running <= best.running {
		best = prefer
	}
	if best != nil {
		best.running++
	}
	return best
}

// nthLiveWorker deterministically maps an index onto the live worker set
// (sorted by id, wrapped modulo its size). The prefetch planner uses it
// to predict reduce placement: the mapping is stable while membership
// holds, and a wrong guess only costs the prefetched bytes.
func (m *Master) nthLiveWorker(n int) *workerHandle {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint64, 0, len(m.workers))
	for id, w := range m.workers {
		if w.state == stateLive {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return m.workers[ids[n%len(ids)]]
}

// masterService is the RPC wrapper exposing the worker-facing API.
type masterService struct{ m *Master }

// Register adds a worker: the master dials it back for task dispatch
// before acknowledging, so a registered worker is always reachable. A
// worker joining mid-job becomes eligible for pending leases on the
// scheduler's next dispatch pass — no job-level coordination needed.
func (s *masterService) Register(join *JoinRequest, reply *RegisterReply) error {
	m := s.m
	if join.Addr == "" {
		return fmt.Errorf("distmr: register without an address")
	}
	client, err := rpcutil.DialRPC(join.Addr, rpcutil.Policy{})
	if err != nil {
		return fmt.Errorf("distmr: dial back worker at %s: %w", join.Addr, err)
	}
	m.mu.Lock()
	if m.shut {
		m.mu.Unlock()
		client.Close()
		return fmt.Errorf("distmr: master is shutting down")
	}
	m.nextID++
	w := &workerHandle{id: m.nextID, addr: join.Addr, client: client, lastBeat: time.Now()}
	if old := m.workers[join.PrevWorker]; join.PrevWorker != 0 && old != nil {
		// The same worker PROCESS re-registering under a fresh id (the
		// master expired its old record): its absolute telemetry snapshots
		// continue from where they were, so the new handle inherits the old
		// one's last-seen state. Without the carry-over the first beat's
		// snapshot would re-merge totals the old handle already applied.
		old.telMu.Lock()
		w.lastCounters, w.lastHists = old.lastCounters, old.lastHists
		w.lastSpanSeq = old.lastSpanSeq
		w.bestRTT, w.clockOffset = old.bestRTT, old.clockOffset
		old.lastCounters, old.lastHists = nil, nil
		old.telMu.Unlock()
	}
	m.workers[w.id] = w
	m.mu.Unlock()
	go m.watchWorker(w)
	reply.Worker = w.id
	reply.Instance = m.instance
	reply.HeartbeatInterval = int64(m.cfg.HeartbeatInterval)
	m.registry().Gauge(GaugeWorkersAlive).Set(int64(m.LiveWorkers()))
	if join.PrevWorker != 0 {
		m.log.Info("worker re-registered", "worker", w.id, "was", join.PrevWorker,
			"addr", w.addr, "alive", m.LiveWorkers())
	} else {
		m.log.Info("worker registered", "worker", w.id, "addr", w.addr,
			"alive", m.LiveWorkers())
	}
	return nil
}

// watchWorker keeps one blocking Worker.Watch call pending against a
// registered worker for the handle's whole life. The call only ever
// returns when the worker dies or shuts down (or when the master closes
// the client itself), so a crash surfaces here promptly instead of
// waiting out the heartbeat grace period — the role the old blocking
// per-task RunTask call used to play.
func (m *Master) watchWorker(w *workerHandle) {
	w.client.Call("Worker.Watch", &Empty{}, &Empty{}) //nolint:errcheck // any return means the worker is gone
	m.mu.Lock()
	shut := m.shut
	m.mu.Unlock()
	if shut {
		return // master teardown closed the client; not a worker death
	}
	m.markDead(w) // no-op if already dead, drained, or expired
}

// Heartbeat records a worker's liveness report, publishes its gauges,
// and — since wire version 3 — routes the completions riding on the
// beat to the running job's scheduler. The reply doubles as the
// master→worker control channel: Shutdown on master teardown, Retired
// when the worker's drain completed, Unknown when the master has no
// live record of the id (expired entry or a restarted master) so the
// worker re-registers.
func (s *masterService) Heartbeat(hb *Heartbeat, reply *HeartbeatReply) error {
	m := s.m
	recv := time.Now()
	healthy := false
	var gRunning, gStoreB *trace.Gauge
	m.mu.Lock()
	w := m.workers[hb.Worker]
	switch {
	case w == nil || w.state == stateDead || hb.Instance != m.instance:
		reply.Unknown = true
	case w.state == stateDrained:
		reply.Retired = true
	default:
		healthy = true
		w.lastBeat = time.Now()
		w.hbRunning = hb.Running
		w.hbTasksDone = hb.TasksDone
		w.hbStoreBytes = hb.StoreBytes
		w.hbPrefetched = hb.Prefetched
		if w.gaugeReg != m.reg {
			w.gaugeReg = m.reg
			w.gRunning = m.reg.Gauge(fmt.Sprintf("distmr worker %d running", w.id))
			w.gStoreB = m.reg.Gauge(fmt.Sprintf("distmr worker %d store bytes", w.id))
		}
		gRunning, gStoreB = w.gRunning, w.gStoreB
	}
	shut := m.shut
	reg := m.reg
	m.mu.Unlock()
	reply.Shutdown = shut
	if !healthy {
		// Stale or unknown worker: its gauges are not refreshed and its
		// completions are deliberately dropped — any lease it held has
		// been (or will be) reassigned, and duplicates of already-settled
		// assignments would be discarded by the scheduler anyway.
		return nil
	}
	gRunning.Set(hb.Running)
	gStoreB.Set(hb.StoreBytes)
	// Import shipped telemetry BEFORE routing completions: a winning
	// attempt drains its spans before queueing its completion, so this
	// ordering guarantees the spans are stitched into the job tracer by
	// the time the scheduler consumes the completion — RunJob's return
	// always sees every winner's spans. Runs outside m.mu (the tracer and
	// registry carry their own locks).
	m.importTelemetry(w, hb, recv)
	if len(hb.Completions) > 0 {
		reg.Counter(CounterCompletionBatches).Add(1)
		// Deliver outside m.mu: the scheduler takes m.mu (pickWorker,
		// release) while draining events, so holding it here could
		// deadlock against a full events channel.
		if jr := m.getSink(); jr != nil {
			jr.acceptCompletions(w, hb.Completions)
		}
	}
	return nil
}

// importTelemetry merges one beat's shipped telemetry (§14): the clock
// offset estimate is refreshed from the lowest-RTT sample, counter and
// histogram snapshots are diffed against the worker's last-seen values
// and the deltas merged into the current registry, and span batches —
// deduplicated by their drain sequence — are stitched into the running
// job's tracer. Every step is idempotent under at-least-once beat
// delivery.
func (m *Master) importTelemetry(w *workerHandle, hb *Heartbeat, recv time.Time) {
	w.telMu.Lock()
	defer w.telMu.Unlock()
	if hb.SentUnixNano != 0 && (w.bestRTT == 0 || (hb.RTTNanos > 0 && hb.RTTNanos <= w.bestRTT)) {
		// The worker stamped the beat with its wall clock at send plus the
		// previous beat's measured round trip; assuming the send leg took
		// half the round trip, the offset maps worker wall time onto the
		// master's. The lowest-RTT sample bounds the error tightest, so
		// only those refresh the estimate.
		w.bestRTT = hb.RTTNanos
		w.clockOffset = recv.UnixNano() - (hb.SentUnixNano + hb.RTTNanos/2)
	}
	if len(hb.Counters) > 0 || len(hb.Hists) > 0 {
		reg := m.registry()
		if w.lastCounters == nil && len(hb.Counters) > 0 {
			w.lastCounters = make(map[string]int64, len(hb.Counters))
		}
		for i := range hb.Counters {
			c := &hb.Counters[i]
			if d := c.Value - w.lastCounters[c.Name]; d > 0 {
				reg.Counter(c.Name).Add(d)
			}
			w.lastCounters[c.Name] = c.Value
		}
		if w.lastHists == nil && len(hb.Hists) > 0 {
			w.lastHists = make(map[string]trace.HistogramValue, len(hb.Hists))
		}
		for i := range hb.Hists {
			h := &hb.Hists[i]
			cur := trace.HistogramValue{Count: h.Count, Sum: h.Sum, Buckets: h.Buckets}
			if d := cur.Sub(w.lastHists[h.Name]); d.Count > 0 {
				reg.Histogram(h.Name).Absorb(d)
			}
			w.lastHists[h.Name] = cur
		}
	}
	if len(hb.SpanBatches) == 0 {
		return
	}
	jr := m.getSink()
	for i := range hb.SpanBatches {
		sb := &hb.SpanBatches[i]
		if sb.Seq <= w.lastSpanSeq {
			continue // resent batch; already applied
		}
		w.lastSpanSeq = sb.Seq
		if jr != nil {
			jr.importSpans(sb.Spans, w.clockOffset)
		}
	}
}

// Retire starts a graceful drain for a worker (normally requested by the
// worker itself on SIGTERM or by an autoscaler).
func (s *masterService) Retire(r *Retire, _ *Empty) error {
	return s.m.retireWorker(r.Worker, r.Reason)
}

// ReadFile serves a file from the running job's DFS to workers (side
// files, schimmy base partitions).
func (s *masterService) ReadFile(args *ReadFileArgs, reply *ReadFileReply) error {
	s.m.mu.Lock()
	fs := s.m.fs
	s.m.mu.Unlock()
	if fs == nil {
		return fmt.Errorf("distmr: no job is running")
	}
	data, err := fs.ReadFile(args.Name)
	if err != nil {
		return err
	}
	reply.Data = data
	return nil
}

// RunJob implements mapreduce.Backend: it executes one job across the
// registered workers and assembles a Result with the same statistics the
// simulated engine would report.
func (m *Master) RunJob(c *mapreduce.Cluster, job *mapreduce.Job) (*mapreduce.Result, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	if job.Spec == nil || job.Spec.Kind == "" {
		return nil, fmt.Errorf("distmr: job %q has no Spec; only spec-bearing jobs can run distributed", job.Name)
	}
	if job.NewReducer == nil {
		return nil, fmt.Errorf("distmr: job %q is map-only; the distributed backend requires a reduce phase", job.Name)
	}
	select {
	case <-m.shutCh:
		return nil, fmt.Errorf("distmr: master shut down")
	default:
	}

	m.mu.Lock()
	m.fs = c.FS
	m.jobSeq++
	seq := m.jobSeq
	m.jobActive = true
	if reg := c.Tracer.Registry(); reg != nil {
		m.reg = reg
	}
	m.mu.Unlock()

	// The job records into the cluster's tracer when the caller carries
	// one, else the master's own: shipped worker spans and master-side
	// dispatch spans must land in the same trace the registry deltas do,
	// or a harness that only traces the master would silently lose them.
	tracer := c.Tracer
	if tracer == nil {
		tracer = m.cfg.Tracer
	}
	jr := &jobRun{
		m:      m,
		c:      c,
		job:    job,
		seq:    seq,
		tracer: tracer,
		log:    m.log.With("job", job.Name, "round", job.Round, "seq", seq),
		events: make(chan event, 64),
		cancel: make(chan struct{}),
	}
	res, err := jr.run()
	m.setSink(nil)
	jr.close()
	m.mu.Lock()
	m.jobActive = false
	m.mu.Unlock()
	m.setJobStatus(nil, 0)
	m.cleanJob(seq)
	if err == nil && m.cfg.PersistState {
		// The job finished; its persisted recovery state (and any drain
		// hand-off segments, which live under the same prefix) is garbage.
		c.FS.DeletePrefix(statePrefix(job.Name))
	}
	return res, err
}

// cleanJob tells every live worker to retire the job's cached code and
// spill segments. The calls are fire-and-forget: worker job state is
// keyed by sequence number, so a CleanJob landing after the next job
// has started cannot touch that job's state, and a call lost to a
// broken connection just leaves garbage the worker's own death or
// restart reclaims. Waiting here would put one RTT per worker on the
// inter-job critical path, which FF drivers cross hundreds of times.
func (m *Master) cleanJob(seq uint64) {
	m.mu.Lock()
	workers := make([]*workerHandle, 0, len(m.workers))
	for _, w := range m.workers {
		if w.alive() {
			workers = append(workers, w)
		}
	}
	m.mu.Unlock()
	for _, w := range workers {
		w.client.Go("Worker.CleanJob", &CleanJobArgs{JobSeq: seq}, &Empty{}, make(chan *rpc.Call, 1))
	}
}
