package service

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"ffmr/internal/obsv"
	"ffmr/internal/trace"
)

// Per-tenant latency histogram names. The tenant ID rides in the metric
// name (the registry has no label dimension); obsv.MetricName sanitizes
// it for the Prometheus exposition, and /status reports the percentiles
// directly per tenant.
func tenantSubmitHist(tenant string) string { return "service submit latency ns tenant " + tenant }
func tenantQueryHist(tenant string) string  { return "service query latency ns tenant " + tenant }

// HistServiceQueryNS aggregates query-API latency across all tenants.
const HistServiceQueryNS = "service query latency ns"

// This file is the service's admission and dispatch layer. Jobs enter
// per-tenant queues (admission: a tenant whose queue is full is rejected
// immediately rather than buffered without bound), and a weighted
// fair-queueing dispatcher multiplexes them onto a bounded number of
// concurrent slots against the shared cluster. Fairness is the classic
// virtual-time scheme: each tenant carries a vtime that advances by
// 1/weight per dispatched job, the dispatcher always serves the eligible
// tenant with the lowest vtime, and a tenant returning from idle is
// caught up to the active minimum so it cannot cash in unbounded credit.
// Priority is deliberately intra-tenant only — a tenant can reorder its
// own work but cannot starve another tenant by shouting louder.

// Quotas bounds the scheduler. The zero value gets usable defaults.
type Quotas struct {
	// MaxConcurrent is the global bound on running jobs (default 2).
	// Each running job drives one multi-round FFMR/update pipeline
	// against the shared worker pool.
	MaxConcurrent int
	// MaxQueuedPerTenant is the admission bound: a submit that would
	// push a tenant's queue beyond it is rejected with ErrQueueFull
	// (default 64).
	MaxQueuedPerTenant int
	// MaxRunningPerTenant caps one tenant's running jobs (default
	// MaxConcurrent, i.e. a lone tenant may use every slot; set it lower
	// to reserve headroom for late-arriving tenants).
	MaxRunningPerTenant int
	// Weights maps tenant → fair-share weight (default 1.0): a tenant
	// with weight 2 receives twice the dispatch rate under contention.
	Weights map[string]float64
}

func (q *Quotas) applyDefaults() {
	if q.MaxConcurrent <= 0 {
		q.MaxConcurrent = 2
	}
	if q.MaxQueuedPerTenant <= 0 {
		q.MaxQueuedPerTenant = 64
	}
	if q.MaxRunningPerTenant <= 0 {
		q.MaxRunningPerTenant = q.MaxConcurrent
	}
}

func (q *Quotas) weight(tenant string) float64 {
	if w, ok := q.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1.0
}

// ErrQueueFull rejects a submit that exceeds the tenant's queue quota.
var ErrQueueFull = errors.New("service: tenant queue quota exceeded")

// ErrClosed rejects work submitted to (or queued in) a closing service.
var ErrClosed = errors.New("service: shutting down")

// JobState is a job's lifecycle position.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// job is one scheduled unit of work: a client submission bound to its
// run closure. The scheduler owns dispatch; the job's own mutex guards
// the fields the API reads while the job is in flight.
type job struct {
	id       string
	tenant   string
	kind     string
	handle   string
	priority int
	seq      uint64 // FIFO tiebreak within equal priority
	run      func() (*JobResult, error)

	mu       sync.Mutex
	state    JobState
	err      error
	result   *JobResult
	enqueued time.Time
	started  time.Time
	finished time.Time

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// info snapshots the job for the API.
func (j *job) info() *JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	ji := &JobInfo{
		ID:       j.id,
		Tenant:   j.tenant,
		Kind:     j.kind,
		Handle:   j.handle,
		Priority: j.priority,
		State:    j.state,
		Result:   j.result,
	}
	if j.err != nil {
		ji.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		ji.QueueMS = j.started.Sub(j.enqueued).Milliseconds()
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		ji.RunMS = end.Sub(j.started).Milliseconds()
	} else {
		ji.QueueMS = time.Since(j.enqueued).Milliseconds()
	}
	return ji
}

// tenantState is one tenant's queue and fair-share accounting.
type tenantState struct {
	id      string
	queue   []*job
	running int
	done    int
	failed  int
	vtime   float64
}

// pop removes and returns the tenant's next job: highest priority first,
// FIFO (lowest seq) within a priority.
func (t *tenantState) pop() *job {
	best := 0
	for i := 1; i < len(t.queue); i++ {
		j, b := t.queue[i], t.queue[best]
		if j.priority > b.priority || (j.priority == b.priority && j.seq < b.seq) {
			best = i
		}
	}
	j := t.queue[best]
	t.queue = append(t.queue[:best], t.queue[best+1:]...)
	return j
}

// scheduler multiplexes jobs from per-tenant queues onto MaxConcurrent
// slots. Dispatch is event-driven: every submit and every completion
// kicks the dispatcher inline, so there is no scheduler goroutine to
// leak and no polling latency.
type scheduler struct {
	q   Quotas
	log *slog.Logger
	reg *trace.Registry // latency histograms (nil: uninstrumented)

	mu      sync.Mutex
	tenants map[string]*tenantState
	global  int
	closed  bool
	wg      sync.WaitGroup
}

func newScheduler(q Quotas, log *slog.Logger, reg *trace.Registry) *scheduler {
	q.applyDefaults()
	return &scheduler{q: q, log: obsv.Or(log), reg: reg, tenants: make(map[string]*tenantState)}
}

// submit admits a job into its tenant's queue (or rejects it on quota)
// and dispatches as many runnable jobs as slots allow.
func (s *scheduler) submit(j *job) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	t := s.tenants[j.tenant]
	if t == nil {
		t = &tenantState{id: j.tenant}
		s.tenants[j.tenant] = t
	}
	if len(t.queue) >= s.q.MaxQueuedPerTenant {
		depth := len(t.queue)
		s.mu.Unlock()
		return fmt.Errorf("%w: tenant %q has %d queued (quota %d)",
			ErrQueueFull, j.tenant, depth, s.q.MaxQueuedPerTenant)
	}
	if len(t.queue) == 0 && t.running == 0 {
		// WFQ catch-up: a tenant returning from idle starts at the active
		// minimum instead of its stale (possibly far-past) vtime, so idle
		// time does not bank an unbounded dispatch burst.
		if mv, ok := s.minActiveVtimeLocked(); ok && t.vtime < mv {
			t.vtime = mv
		}
	}
	j.mu.Lock()
	j.state = JobQueued
	j.enqueued = time.Now()
	j.mu.Unlock()
	t.queue = append(t.queue, j)
	s.kickLocked()
	s.mu.Unlock()
	return nil
}

// minActiveVtimeLocked returns the lowest vtime among tenants with
// queued or running work.
func (s *scheduler) minActiveVtimeLocked() (float64, bool) {
	min, ok := 0.0, false
	for _, t := range s.tenants {
		if len(t.queue) == 0 && t.running == 0 {
			continue
		}
		if !ok || t.vtime < min {
			min, ok = t.vtime, true
		}
	}
	return min, ok
}

// pickTenantLocked selects the eligible tenant with the lowest vtime
// (ties break on tenant ID for determinism), or nil when nothing is
// dispatchable.
func (s *scheduler) pickTenantLocked() *tenantState {
	var best *tenantState
	for _, t := range s.tenants {
		if len(t.queue) == 0 || t.running >= s.q.MaxRunningPerTenant {
			continue
		}
		if best == nil || t.vtime < best.vtime ||
			(t.vtime == best.vtime && t.id < best.id) {
			best = t
		}
	}
	return best
}

// kickLocked dispatches until the global slots are full or nothing is
// eligible. Called with s.mu held, on every submit and completion.
func (s *scheduler) kickLocked() {
	for s.global < s.q.MaxConcurrent {
		t := s.pickTenantLocked()
		if t == nil {
			return
		}
		j := t.pop()
		t.running++
		s.global++
		t.vtime += 1.0 / s.q.weight(t.id)
		s.wg.Add(1)
		go s.exec(t, j)
	}
}

func (s *scheduler) exec(t *tenantState, j *job) {
	defer s.wg.Done()
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.log.Info("job dispatched", "job", j.id, "tenant", j.tenant,
		"kind", j.kind, "handle", j.handle, "priority", j.priority)

	res, err := j.run()

	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state, j.err = JobFailed, err
	} else {
		j.state, j.result = JobDone, res
	}
	dur := j.finished.Sub(j.started)
	e2e := j.finished.Sub(j.enqueued)
	j.mu.Unlock()
	// Submit-to-done latency, queue wait included — the figure a tenant
	// actually experiences, regardless of outcome.
	s.reg.Histogram(tenantSubmitHist(j.tenant)).Observe(e2e.Nanoseconds())

	// The job is counted before its waiter is released, so a status read
	// after the job is done includes it.
	s.mu.Lock()
	t.running--
	s.global--
	if err != nil {
		t.failed++
	} else {
		t.done++
	}
	s.kickLocked()
	s.mu.Unlock()
	close(j.done)
	if err != nil {
		s.log.Warn("job failed", "job", j.id, "tenant", j.tenant, "err", err, "dur", dur)
	} else {
		s.log.Info("job done", "job", j.id, "tenant", j.tenant,
			"handle", j.handle, "gen", res.Gen, "flow", res.Flow, "dur", dur)
	}
}

// close stops admission, fails every queued job, and waits for running
// jobs to finish (a mid-flight solve is left to complete: its DFS state
// is consistent and its tenant gets a result).
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var orphans []*job
	for _, t := range s.tenants {
		orphans = append(orphans, t.queue...)
		t.queue = nil
	}
	s.mu.Unlock()
	for _, j := range orphans {
		j.mu.Lock()
		j.state, j.err, j.finished = JobFailed, ErrClosed, time.Now()
		j.mu.Unlock()
		close(j.done)
	}
	s.wg.Wait()
}

// status snapshots the scheduler for /status: service-wide totals plus
// the per-tenant breakdown, sorted by tenant ID.
func (s *scheduler) status() *obsv.ServiceStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &obsv.ServiceStatus{MaxConcurrent: s.q.MaxConcurrent}
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	hists := s.reg.HistogramSnapshot()
	for _, id := range ids {
		t := s.tenants[id]
		st.Queued += len(t.queue)
		st.Running += t.running
		st.Done += t.done
		st.Failed += t.failed
		ts := obsv.TenantStatus{
			Tenant:       id,
			Queued:       len(t.queue),
			Running:      t.running,
			Done:         t.done,
			Failed:       t.failed,
			QuotaQueued:  s.q.MaxQueuedPerTenant,
			QuotaRunning: s.q.MaxRunningPerTenant,
			VTime:        t.vtime,
		}
		if hv, ok := hists[tenantSubmitHist(id)]; ok && hv.Count > 0 {
			ts.SubmitP50NS = hv.Quantile(0.50)
			ts.SubmitP95NS = hv.Quantile(0.95)
			ts.SubmitP99NS = hv.Quantile(0.99)
		}
		if hv, ok := hists[tenantQueryHist(id)]; ok && hv.Count > 0 {
			ts.QueryP50NS = hv.Quantile(0.50)
			ts.QueryP95NS = hv.Quantile(0.95)
			ts.QueryP99NS = hv.Quantile(0.99)
		}
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}
