package obsv

// The /status JSON schema. obsv owns these types so the admin server
// and the distributed master (which produces them) agree without an
// import cycle: distmr imports obsv, never the reverse.

// ClusterStatus is a point-in-time view of a master and its workers,
// served as JSON on /status.
type ClusterStatus struct {
	// Role is "master" or "worker"; Addr is the component's RPC address.
	Role string `json:"role"`
	Addr string `json:"addr,omitempty"`
	// WorkersAlive counts live registered workers (master only).
	WorkersAlive int `json:"workers_alive"`
	// Workers lists every registered worker, dead ones included.
	Workers []WorkerStatus `json:"workers,omitempty"`
	// Job is the currently running job, nil between jobs.
	Job *JobStatus `json:"job,omitempty"`
	// Hints is the master's autoscaling signal (master only).
	Hints *ScalingHints `json:"hints,omitempty"`
	// Service is the resident flow service's section (Role "service"): the
	// scheduler's per-tenant queues and the resident snapshot handles.
	Service *ServiceStatus `json:"service,omitempty"`
}

// ServiceStatus is a point-in-time view of the resident flow service,
// published under ClusterStatus.Service by the service's admin server.
// Like JobStatus it is assembled as an immutable snapshot and handed
// over whole, so scrapes never read scheduler internals.
type ServiceStatus struct {
	// Queued/Running/Done/Failed are service-wide job totals;
	// MaxConcurrent is the scheduler's global running bound.
	Queued        int `json:"queued"`
	Running       int `json:"running"`
	Done          int `json:"done"`
	Failed        int `json:"failed"`
	MaxConcurrent int `json:"max_concurrent"`
	// Tenants breaks the totals down per tenant (the queue-depth signal
	// an operator or autoscaler watches), sorted by tenant ID.
	Tenants []TenantStatus `json:"tenants,omitempty"`
	// Handles lists the resident solved snapshots the query API serves.
	Handles []HandleStatus `json:"handles,omitempty"`
}

// TenantStatus is one tenant's scheduler accounting.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	// Queued counts admitted jobs waiting for dispatch (bounded by
	// QuotaQueued); Running counts dispatched jobs (bounded by
	// QuotaRunning); Done/Failed are lifetime completion totals.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// QuotaQueued and QuotaRunning are the admission and fair-share
	// bounds in force for this tenant.
	QuotaQueued  int `json:"quota_queued"`
	QuotaRunning int `json:"quota_running"`
	// VTime is the tenant's weighted fair-queueing virtual time; the
	// dispatcher always serves the eligible tenant with the lowest.
	VTime float64 `json:"vtime"`
	// Submit-to-done latency percentiles (nanoseconds) over this
	// tenant's completed jobs, from the service's per-tenant histogram.
	SubmitP50NS int64 `json:"submit_p50_ns,omitempty"`
	SubmitP95NS int64 `json:"submit_p95_ns,omitempty"`
	SubmitP99NS int64 `json:"submit_p99_ns,omitempty"`
	// Query latency percentiles (nanoseconds) over this tenant's
	// snapshot queries.
	QueryP50NS int64 `json:"query_p50_ns,omitempty"`
	QueryP95NS int64 `json:"query_p95_ns,omitempty"`
	QueryP99NS int64 `json:"query_p99_ns,omitempty"`
}

// HandleStatus describes one resident snapshot the query API serves.
type HandleStatus struct {
	Handle string `json:"handle"`
	Tenant string `json:"tenant"`
	// Gen is the store's monotonic generation; every query answer about
	// this handle is tagged with the generation it was served from.
	Gen int64 `json:"gen"`
	// Flow is the generation's maximum-flow value; Vertices/Edges size
	// its graph.
	Flow     int64 `json:"flow"`
	Vertices int   `json:"vertices"`
	Edges    int   `json:"edges"`
}

// ScalingHints is the master's published autoscaling signal: enough for
// an external supervisor to decide whether the cluster wants more
// workers (deep queue) or fewer (idle), without scraping internals.
type ScalingHints struct {
	// QueueDepth counts runnable tasks waiting for a worker slot;
	// InFlight counts leased tasks currently executing.
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	// WorkersLive counts schedulable workers; WorkersDraining counts
	// workers finishing up before retirement.
	WorkersLive     int `json:"workers_live"`
	WorkersDraining int `json:"workers_draining"`
	// QueueWaitP95NS is the 95th-percentile scheduler queue wait
	// (enqueue to dispatch) in nanoseconds, from the master's queue-wait
	// histogram. A growing p95 with live workers means the cluster is
	// under-provisioned.
	QueueWaitP95NS int64 `json:"queue_wait_p95_ns,omitempty"`
	// IdleFraction estimates the running job's critical-path idle share:
	// 1 - (sum of winning task execution time) / (live workers x job
	// elapsed), clamped to [0,1]. High idle with a shallow queue means
	// the cluster could shrink; the offline analyzer computes the exact
	// per-round counterpart from the stitched trace.
	IdleFraction float64 `json:"idle_fraction,omitempty"`
}

// WorkerStatus is the master's live view of one registered worker.
type WorkerStatus struct {
	ID   uint64 `json:"id"`
	Addr string `json:"addr"`
	// Running is the worker's self-reported in-flight task count;
	// TasksDone its completed-task total — both piggybacked on the most
	// recent heartbeat.
	Running   int64 `json:"running"`
	TasksDone int64 `json:"tasks_done"`
	// StoreBytes is the worker's local segment store footprint.
	StoreBytes int64 `json:"store_bytes"`
	// LastBeatMS is milliseconds since the last heartbeat arrived.
	LastBeatMS int64 `json:"last_beat_ms"`
	// State is the membership state: "live", "draining", "drained" or
	// "dead". Dead stays as the coarse boolean for old consumers.
	State string `json:"state,omitempty"`
	Dead  bool   `json:"dead,omitempty"`
}

// JobStatus is the scheduler's live view of the running job.
type JobStatus struct {
	Name  string `json:"name"`
	Round int    `json:"round"`
	// Maps/Reduces are task totals; the Done fields count winners so far.
	Maps        int `json:"maps"`
	MapsDone    int `json:"maps_done"`
	Reduces     int `json:"reduces"`
	ReducesDone int `json:"reduces_done"`
	// InFlight counts outstanding leases; Queued counts runnable tasks
	// still waiting for a slot; Parked counts reduces waiting for lost
	// map outputs to be re-created.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued,omitempty"`
	Parked   int `json:"parked,omitempty"`
}
