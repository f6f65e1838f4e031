// Package service implements the resident multi-tenant flow service: a
// long-lived process that owns one cluster (the simulated engine or a
// distmr master with its worker pool) and multiplexes many client jobs
// over it. The write path is a fair-share scheduler — per-tenant quota'd
// queues, weighted-fair dispatch, intra-tenant priority — that runs a
// bounded number of solve/update pipelines concurrently, each isolated
// under its own DFS namespace. The read path is a generation-tagged
// store of completed runs kept resident as dynamic.Snapshots with
// materialized query views: flow-value, min-cut-membership and
// residual-capacity queries are answered from immutable in-memory state
// and never touch the scheduler, so query latency is independent of
// whatever the write path is grinding through. Update jobs advance a
// handle by atomically swapping in the next generation; readers observe
// generations strictly monotonically.
package service

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/dynamic"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/portfolio" // also registers the "prflow" and "auto" engines
	"ffmr/internal/rpcutil"
	"ffmr/internal/trace"
)

// Config configures a Service.
type Config struct {
	// Cluster is the shared execution substrate every job runs on. With
	// Cluster.Distributed set, jobs execute on the external worker pool;
	// otherwise on the in-process simulated engine. Required.
	Cluster *mapreduce.Cluster
	// Quotas bounds the scheduler (zero value: defaults).
	Quotas Quotas
	// Addr is the client API listen address (default 127.0.0.1:0).
	Addr string
	// AdminAddr, when non-empty, serves the obsv admin endpoints
	// (/metrics, /status, /healthz, pprof) on a second listener.
	AdminAddr string
	// DefaultOpts seeds every job's core options (variant, K,
	// termination, ...). Per-job fields — PathPrefix, Tracer, Log — are
	// overwritten by the service.
	DefaultOpts core.Options
	// MasterStatus, when non-nil, supplies the distributed master's
	// /status section so the service admin page shows workers and the
	// running MR job alongside the scheduler (typically
	// distmr.Master.Status).
	MasterStatus func() *obsv.ClusterStatus
	// Tracer records job spans and powers /metrics (nil: a private
	// tracer is created).
	Tracer *trace.Tracer
	// Logger receives service logs (nil: silent).
	Logger *slog.Logger
	// Seed seeds the job-sequence nonce. 0 derives one from the clock,
	// so DFS namespaces never collide across service restarts over a
	// persistent store (the same generation-nonce idea distmr uses for
	// spill segments).
	Seed uint64
}

// Service is a running flow service. Create with Start; Close shuts it
// down (stops admission, fails queued jobs, waits for running jobs,
// closes both HTTP servers).
type Service struct {
	cfg    Config
	log    *slog.Logger
	tracer *trace.Tracer
	sched  *scheduler
	store  *store
	api    *rpcutil.HTTPServer
	admin  *obsv.Admin

	// jobSeq numbers every submission; the hex value becomes both the
	// job ID and the job's private DFS namespace, so no two jobs — across
	// tenants, retries or restarts — ever share a prefix.
	jobSeq atomic.Uint64

	// queries counts query-API hits (the /metrics QPS numerator).
	queries *trace.Counter

	jobMu   sync.Mutex
	jobs    map[string]*job
	jobsLog []string // insertion order, for bounded retention
}

// maxJobRecords bounds the completed-job history the API can replay;
// older records are evicted FIFO (their DFS state is unaffected).
const maxJobRecords = 4096

// Start validates the config, binds the API (and admin, if configured)
// and returns the running service.
func Start(cfg Config) (*Service, error) {
	if cfg.Cluster == nil || cfg.Cluster.FS == nil {
		return nil, fmt.Errorf("service: Config.Cluster with an FS is required")
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.New()
	}
	s := &Service{
		cfg:    cfg,
		log:    obsv.Or(cfg.Logger),
		tracer: tracer,
		sched:  newScheduler(cfg.Quotas, cfg.Logger, tracer.Registry()),
		store:  newStore(),
		jobs:   make(map[string]*job),
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	s.jobSeq.Store(seed)
	s.queries = tracer.Registry().Counter("service queries")

	api, err := rpcutil.ServeHTTP(rpcutil.HTTPConfig{
		Addr:    cfg.Addr,
		Handler: s.apiMux(),
		Logger:  cfg.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("service: api server: %w", err)
	}
	s.api = api
	if cfg.AdminAddr != "" {
		admin, err := obsv.StartAdmin(obsv.AdminConfig{
			Addr:   cfg.AdminAddr,
			Tracer: func() *trace.Tracer { return tracer },
			Status: s.Status,
			Logger: cfg.Logger,
		})
		if err != nil {
			api.Close()
			return nil, err
		}
		s.admin = admin
	}
	s.log.Info("flow service up", "addr", s.Addr(), "admin", s.AdminAddr(),
		"max_concurrent", s.sched.q.MaxConcurrent)
	return s, nil
}

// Addr returns the client API address.
func (s *Service) Addr() string { return s.api.Addr() }

// URL returns the client API base URL.
func (s *Service) URL() string { return s.api.URL() }

// AdminAddr returns the admin address ("" if no admin was configured).
func (s *Service) AdminAddr() string { return s.admin.Addr() }

// Close drains and stops the service: admission closes first so the
// scheduler can empty, then the listeners go down.
func (s *Service) Close() error {
	s.sched.close()
	err := s.api.Close()
	if aerr := s.admin.Close(); err == nil {
		err = aerr
	}
	return err
}

// Status assembles the /status payload: the scheduler and store
// sections, merged over the master's view when one is attached.
func (s *Service) Status() *obsv.ClusterStatus {
	st := &obsv.ClusterStatus{}
	if s.cfg.MasterStatus != nil {
		if ms := s.cfg.MasterStatus(); ms != nil {
			*st = *ms
		}
	}
	st.Role = "service"
	svc := s.sched.status()
	svc.Handles = s.store.status()
	st.Service = svc
	return st
}

// jobCluster returns this job's private cluster handle: a shallow copy
// of the shared base. core.Run and dynamic.Apply install the job's
// tracer and logger on the cluster they are given, so concurrent jobs
// must not share the struct; the FS and Distributed backend pointers are
// shared and internally synchronized (the distmr master serializes jobs,
// so concurrent service jobs interleave at MR-job granularity).
func (s *Service) jobCluster() *mapreduce.Cluster {
	c := *s.cfg.Cluster
	return &c
}

// submit validates a request, registers the job and hands it to the
// scheduler. The returned job is already visible to the jobs API.
func (s *Service) submit(req *SubmitRequest) (*job, error) {
	if req.Tenant == "" {
		return nil, fmt.Errorf("service: tenant is required")
	}
	if req.Handle == "" {
		return nil, fmt.Errorf("service: handle is required")
	}
	seq := s.jobSeq.Add(1)
	j := &job{
		id:       fmt.Sprintf("j-%016x", seq),
		tenant:   req.Tenant,
		handle:   req.Handle,
		priority: req.Priority,
		seq:      seq,
		done:     make(chan struct{}),
	}
	switch req.Kind {
	case "", KindSolve:
		j.kind = KindSolve
		if req.Graph == nil {
			return nil, fmt.Errorf("service: solve job needs a graph")
		}
		in, err := req.Graph.toInput()
		if err != nil {
			return nil, err
		}
		if req.Engine != "" && !knownEngine(req.Engine) {
			return nil, fmt.Errorf("service: unknown engine %q (have %s)",
				req.Engine, strings.Join(core.EngineNames(), ", "))
		}
		variant, engine := req.Variant, req.Engine
		j.run = func() (*JobResult, error) {
			return s.runSolve(j, in, variant, engine, seq)
		}
	case KindUpdate:
		j.kind = KindUpdate
		batch, err := decodeUpdates(req.Updates)
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return nil, fmt.Errorf("service: update job needs at least one update")
		}
		j.run = func() (*JobResult, error) {
			return s.runUpdate(j, batch)
		}
	default:
		return nil, fmt.Errorf("service: unknown job kind %q", req.Kind)
	}

	s.rememberJob(j)
	if err := s.sched.submit(j); err != nil {
		s.forgetJob(j.id)
		return nil, err
	}
	return j, nil
}

// runSolve is a solve job's body: cold-solve the graph under a fresh
// namespace, materialize the query view, publish generation n+1 of the
// handle (n=0 for a new handle), and retire the superseded chain's DFS
// state.
func knownEngine(name string) bool {
	for _, n := range core.EngineNames() {
		if n == name {
			return true
		}
	}
	return false
}

func (s *Service) runSolve(j *job, in *graph.Input, variant int, engine string, seq uint64) (*JobResult, error) {
	r, err := s.store.ensure(j.handle, j.tenant)
	if err != nil {
		return nil, err
	}
	// Chain advances for one handle are serialized; the scheduler slot
	// stays occupied while waiting, which only happens when a tenant
	// races jobs against its own handle.
	r.updateMu.Lock()
	defer r.updateMu.Unlock()

	opts := s.cfg.DefaultOpts
	if variant != 0 {
		opts.Variant = core.Variant(variant)
	}
	// Engine precedence: per-request, then service default, then the
	// instance-probing portfolio — every pipeline persists the same
	// state shape, so later updates warm-restart identically.
	if engine != "" {
		opts.Engine = engine
	} else if opts.Engine == "" {
		opts.Engine = portfolio.EngineName
	}
	opts.PathPrefix = fmt.Sprintf("svc/%s/%016x/", pathSafe(j.tenant), seq)
	opts.Tracer = s.tracer
	opts.Log = s.log.With("job", j.id)

	snap, err := dynamic.Solve(s.jobCluster(), in, opts)
	if err != nil {
		return nil, err
	}
	view, err := dynamic.BuildView(s.cfg.Cluster.FS, snap)
	if err != nil {
		return nil, err
	}
	gen, old := r.publish(snap, view)
	if old != nil {
		// The whole previous chain lived under its own root; nothing in
		// the new chain references it. Readers holding the old View are
		// unaffected — views are fully materialized in memory.
		s.cfg.Cluster.FS.DeletePrefix(old.Snap.Root)
	}
	return &JobResult{
		Handle: j.handle,
		Gen:    gen,
		Flow:   snap.Result.MaxFlow,
		Rounds: snap.Result.Rounds,
	}, nil
}

// runUpdate is an update job's body: apply the batch to the handle's
// latest snapshot, warm-restart, publish the next generation, and prune
// the superseded warm generation's DFS state.
func (s *Service) runUpdate(j *job, batch []graph.Update) (*JobResult, error) {
	r, err := s.store.owned(j.handle, j.tenant)
	if err != nil {
		return nil, err
	}
	r.updateMu.Lock()
	defer r.updateMu.Unlock()
	cur := r.latest()
	if cur == nil {
		return nil, fmt.Errorf("service: handle %q has no solved generation", j.handle)
	}

	cluster := s.jobCluster()
	// Apply reuses the snapshot's stored options; point its logger at
	// this job. The tracer is shared service-wide already.
	snap := *cur.Snap
	snap.Opts.Log = s.log.With("job", j.id)
	out, err := dynamic.Apply(cluster, &snap, batch)
	if err != nil {
		return nil, err
	}
	view, err := dynamic.BuildView(s.cfg.Cluster.FS, out.Snapshot)
	if err != nil {
		return nil, err
	}
	gen, old := r.publish(out.Snapshot, view)
	if old != nil && old.Snap.Gen > 0 {
		// A superseded warm generation's state lives wholly under its
		// warm-NNNN/ prefix and nothing reads it again; deleting it keeps
		// resident DFS growth bounded by one state per handle plus the
		// base chain. The base generation (Gen 0) is never pruned: its
		// prefix is the chain root the live warm prefixes nest under.
		s.cfg.Cluster.FS.DeletePrefix(old.Snap.Opts.PathPrefix)
	}
	return &JobResult{
		Handle:     j.handle,
		Gen:        gen,
		Flow:       out.Snapshot.Result.MaxFlow,
		Rounds:     out.Warm.Rounds,
		Violations: out.Violations,
	}, nil
}

// rememberJob registers a job for the jobs API, evicting the oldest
// record beyond the retention bound.
func (s *Service) rememberJob(j *job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobs[j.id] = j
	s.jobsLog = append(s.jobsLog, j.id)
	for len(s.jobsLog) > maxJobRecords {
		delete(s.jobs, s.jobsLog[0])
		s.jobsLog = s.jobsLog[1:]
	}
}

func (s *Service) forgetJob(id string) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	delete(s.jobs, id)
	for i, v := range s.jobsLog {
		if v == id {
			s.jobsLog = append(s.jobsLog[:i], s.jobsLog[i+1:]...)
			break
		}
	}
}

func (s *Service) lookupJob(id string) *job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobs[id]
}

// pathSafe maps a tenant ID onto the DFS path alphabet (lowercased
// alphanumerics and dashes) so tenant names can't escape or collide
// namespaces; uniqueness comes from the job sequence, not the name.
func pathSafe(tenant string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(tenant) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "tenant"
	}
	return b.String()
}
