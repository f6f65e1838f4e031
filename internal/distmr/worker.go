package distmr

import (
	"fmt"
	"log/slog"
	"net"
	"net/rpc"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/rpcutil"
	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// WorkerConfig configures a worker.
type WorkerConfig struct {
	// MasterAddr is the master's RPC address (required).
	MasterAddr string
	// ListenAddr is the worker's own listen address (default 127.0.0.1:0).
	ListenAddr string
	// Store holds map output spill segments; it is the worker's local
	// disk in Hadoop terms. Default: an in-memory store. Worker processes
	// should use spill.NewDiskRunStore.
	Store spill.RunStore
	// OnDeath is invoked (once, on its own goroutine) when the worker
	// dies from injected WorkerCrashRate — the harness uses it to start a
	// replacement, the way a cluster re-provisions a dead tasktracker.
	OnDeath func(w *Worker)
	// HeartbeatMisses is how many consecutive heartbeat failures the
	// worker tolerates before concluding the master is gone and exiting
	// (default 20).
	HeartbeatMisses int
	// DialPolicy configures all of the worker's outbound dials.
	DialPolicy rpcutil.Policy
	// Obsv configures the worker's observability surface. FlightDir is
	// where a worker that dies from an injected crash writes its tracer's
	// dump, for `ffmr -analyze` to merge with the run's trace. AdminAddr
	// starts a per-worker admin HTTP server. The zero value disables all
	// of it at no cost.
	Obsv obsv.Options
}

// Worker executes tasks for a master and serves its map output segments
// to other workers. Create with StartWorker; it registers itself and
// heartbeats until Close, a master shutdown, or an injected crash.
type Worker struct {
	cfg WorkerConfig
	id  atomic.Uint64 // master-assigned; changes on re-registration
	// instance is the master-instance nonce from the last registration,
	// echoed in every heartbeat so a restarted master can tell this
	// worker's stale id from a re-registered worker's fresh one.
	instance atomic.Uint64
	ln       net.Listener
	// master is the client to the master, swapped by the heartbeat loop
	// when it redials after the master restarts.
	master  atomic.Pointer[rpc.Client]
	hbEvery time.Duration
	log     *slog.Logger
	admin   *obsv.Admin
	// tracer is the worker's private tracer: task, spill and shuffle
	// spans are recorded here with their remote trace.Context attached,
	// drained in complete subtrees, and shipped to the master on
	// heartbeats (DESIGN.md §9). Its registry also backs the worker
	// admin server's /metrics and carries the worker-side histograms.
	tracer *trace.Tracer

	running   atomic.Int64
	tasksDone atomic.Int64
	dead      atomic.Bool
	crashed   atomic.Bool
	draining  atomic.Bool
	// taskDelay is injected slow-node latency (nanoseconds) applied to
	// every task attempt before it executes; chaos schedules and the
	// elastic tests use it to manufacture stragglers.
	taskDelay atomic.Int64

	closeOnce sync.Once
	stop      chan struct{} // closed on death; stops the heartbeat loop
	done      chan struct{} // closed when the worker is fully down

	// compMu guards the completion queue. Finished attempts park their
	// result here and kick the heartbeat loop; the queue is drained only
	// after a beat the master acknowledged, so completions survive failed
	// beats (at-least-once, deduplicated master-side).
	compMu   sync.Mutex
	comps    []Completion
	compKick chan struct{} // cap 1; wakes the heartbeat loop early

	// spanMu guards the drained-but-unacknowledged span batches. Each
	// batch carries a strictly increasing Seq assigned at drain time; the
	// queue drops its sent prefix only after a beat the master
	// acknowledged, so batches survive failed beats exactly like
	// completions (at-least-once, deduplicated master-side by Seq).
	spanMu       sync.Mutex
	spanBatches  []SpanBatch
	spanBatchSeq uint64

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	jobs    map[uint64]*workerJob
	fetchCl map[string]*rpc.Client

	// heldMu guards the partitions kept from completed reduce attempts
	// (keepOutput): heldJobs lists the jobs that have some in the store,
	// and heldFloor is the oldest job whose partitions may stay. Keeping
	// a job's outputs through the next job only is what bounds the store:
	// the next job is the one that reads them.
	heldMu    sync.Mutex
	heldJobs  map[uint64]struct{}
	heldFloor uint64
}

// workerJob is a worker's cached per-job state: the reconstructed code
// and, around it, the environment every task attempt of the job runs in
// (broadcast side files included), built once on first task receipt.
type workerJob struct {
	once sync.Once
	err  error
	code *JobCode
	env  *mapreduce.TaskEnv
}

// workerService is the RPC wrapper so only intended methods are served.
type workerService struct{ w *Worker }

// StartWorker launches a worker: it listens, registers with the master,
// and starts heartbeating.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.MasterAddr == "" {
		return nil, fmt.Errorf("distmr: worker needs a master address")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Store == nil {
		cfg.Store = spill.NewMemRunStore()
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 20
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("distmr: worker listen: %w", err)
	}
	w := &Worker{
		cfg:      cfg,
		ln:       ln,
		log:      obsv.Or(cfg.Obsv.Logger).With("role", "worker"),
		tracer:   trace.New(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		compKick: make(chan struct{}, 1),
		conns:    make(map[net.Conn]struct{}),
		jobs:     make(map[uint64]*workerJob),
		fetchCl:  make(map[string]*rpc.Client),
		heldJobs: make(map[uint64]struct{}),
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &workerService{w: w}); err != nil {
		ln.Close()
		return nil, fmt.Errorf("distmr: worker register service: %w", err)
	}

	master, err := rpcutil.DialRPC(cfg.MasterAddr, cfg.DialPolicy)
	if err != nil {
		w.die(false)
		return nil, err
	}
	w.master.Store(master)
	if err := w.register(0); err != nil {
		w.die(false)
		return nil, err
	}
	if w.hbEvery <= 0 {
		w.hbEvery = 100 * time.Millisecond
	}
	w.log = w.log.With("worker", w.id.Load())
	if cfg.Obsv.AdminAddr != "" {
		admin, err := obsv.StartAdmin(obsv.AdminConfig{
			Addr:   cfg.Obsv.AdminAddr,
			Tracer: func() *trace.Tracer { return w.tracer },
			Status: w.Status,
			Logger: w.log,
		})
		if err != nil {
			w.die(false)
			return nil, fmt.Errorf("distmr: worker admin server: %w", err)
		}
		w.admin = admin
		w.log.Info("admin server listening", "addr", admin.Addr())
	}
	w.log.Info("registered with master", "addr", ln.Addr().String(), "master", cfg.MasterAddr)
	// Serve RPCs only now that registration filled in id/master/hbEvery:
	// the master may dispatch a task the moment Register returns, and a
	// handler must never observe a half-initialized worker. The master's
	// dial-back during Register only needs the listen backlog, not the
	// accept loop, so the ordering is safe.
	go w.accept(srv)
	go w.heartbeatLoop()
	return w, nil
}

// register announces the worker to the master and adopts the assigned
// identity. prev is the worker's previous id when re-registering after
// the master forgot it (expiry, or a master restart); 0 on first join.
func (w *Worker) register(prev uint64) error {
	args := &JoinRequest{
		Addr:       w.ln.Addr().String(),
		Pid:        os.Getpid(),
		PrevWorker: prev,
	}
	var reply RegisterReply
	if err := w.master.Load().Call("Master.Register", args, &reply); err != nil {
		return fmt.Errorf("distmr: register with master: %w", err)
	}
	w.id.Store(reply.Worker)
	if old := w.instance.Swap(reply.Instance); old != 0 && old != reply.Instance {
		// A new master generation: jobs of the dead generation will never
		// send CleanJob, so their cached code would linger forever. Their
		// job sequence numbers can never be reused (each generation seeds
		// the counter from its instance nonce), so dropping every cached
		// entry is safe — tasks of the new generation rebuild on receipt.
		w.mu.Lock()
		w.jobs = make(map[uint64]*workerJob)
		w.mu.Unlock()
		// Kept partitions are tagged with the dead generation's handles,
		// which the new master never dispatches against.
		w.heldMu.Lock()
		w.cfg.Store.RemovePrefix(heldRoot)
		clear(w.heldJobs)
		w.heldFloor = 0
		w.heldMu.Unlock()
	}
	if hb := time.Duration(reply.HeartbeatInterval); hb > 0 {
		w.hbEvery = hb
	}
	return nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// ID returns the master-assigned worker id.
func (w *Worker) ID() uint64 { return w.id.Load() }

// TasksDone returns how many task attempts this worker has completed.
func (w *Worker) TasksDone() int64 { return w.tasksDone.Load() }

// Draining reports whether a drain has been requested on this worker.
func (w *Worker) Draining() bool { return w.draining.Load() }

// SetTaskDelay injects slow-node latency: every subsequent task attempt
// sleeps d before executing, making this worker a straggler without
// changing any task outcome. Zero removes the delay.
func (w *Worker) SetTaskDelay(d time.Duration) { w.taskDelay.Store(int64(d)) }

// Kill terminates the worker the way an injected crash does: trace
// dumped, OnDeath fired, no goodbye to the master. Chaos schedules use
// it to fell a specific worker at a specific moment.
func (w *Worker) Kill() { w.die(true) }

// Drain asks the master to retire this worker gracefully: no new leases
// are granted, running attempts finish, and completed map output is
// handed off through the DFS before the master tells the worker (via a
// heartbeat reply) that it may exit. Idempotent.
func (w *Worker) Drain() {
	if w.dead.Load() || !w.draining.CompareAndSwap(false, true) {
		return
	}
	w.log.Info("drain requested")
	args := &Retire{Worker: w.id.Load(), Reason: "worker-requested"}
	if err := w.master.Load().Call("Master.Retire", args, &Empty{}); err != nil {
		w.log.Warn("drain request failed", "err", err)
	}
}

// Crashed reports whether the worker died from injected WorkerCrashRate.
func (w *Worker) Crashed() bool { return w.crashed.Load() }

// Dead reports whether the worker is down, whatever the cause.
func (w *Worker) Dead() bool { return w.dead.Load() }

// AdminAddr returns the worker's admin HTTP address, or "" when no admin
// server was configured.
func (w *Worker) AdminAddr() string {
	if w.admin == nil {
		return ""
	}
	return w.admin.Addr()
}

// Status is this worker's self-view, served at its own /status endpoint.
func (w *Worker) Status() *obsv.ClusterStatus {
	st := &obsv.ClusterStatus{Role: "worker", Addr: w.Addr()}
	ws := obsv.WorkerStatus{
		ID:         w.id.Load(),
		Addr:       w.Addr(),
		Running:    w.running.Load(),
		TasksDone:  w.tasksDone.Load(),
		StoreBytes: w.cfg.Store.Bytes(),
		Dead:       w.dead.Load(),
	}
	switch {
	case ws.Dead:
		ws.State = "dead"
	case w.draining.Load():
		ws.State = "draining"
	default:
		ws.State = "live"
	}
	if !ws.Dead {
		st.WorkersAlive = 1
	}
	st.Workers = []obsv.WorkerStatus{ws}
	return st
}

// Wait blocks until the worker is down (Close, master shutdown, or an
// injected crash).
func (w *Worker) Wait() { <-w.done }

// Close stops the worker: heartbeats end, the listener and every open
// connection close, cached shuffle clients and job services are released.
func (w *Worker) Close() error {
	w.die(false)
	return nil
}

// die is the single teardown path. crash marks an injected death, which
// additionally records the crash (kv names the task it struck) and fires
// OnDeath; in both cases every held resource closes so leak checks stay
// clean.
func (w *Worker) die(crash bool, kv ...any) {
	w.closeOnce.Do(func() {
		w.dead.Store(true)
		w.spanMu.Lock()
		lost := len(w.spanBatches)
		w.spanMu.Unlock()
		if lost > 0 {
			w.tracer.Registry().Counter(CounterSpanBatchesLost).Add(int64(lost))
		}
		if crash {
			w.crashed.Store(true)
			// The crash event is recorded before the dump, so the dump's
			// timeline ends with the cause of death.
			kv = append(kv, "running", w.running.Load(), "tasks_done", w.tasksDone.Load())
			decide(w.log, w.tracer, nil, slog.LevelError, "injected worker crash", kv...)
			if dir := w.cfg.Obsv.FlightDir; dir != "" {
				if path, err := writeDump(w.tracer, dir, fmt.Sprintf("worker-%d", w.id.Load()), "crash"); err != nil {
					w.log.Warn("trace dump failed", "err", err)
				} else {
					w.log.Info("trace dumped", "path", path)
				}
			}
		} else {
			w.log.Debug("worker shutting down")
		}
		w.admin.Close()
		close(w.stop)
		w.ln.Close()

		w.mu.Lock()
		for conn := range w.conns {
			conn.Close()
		}
		w.conns = map[net.Conn]struct{}{}
		for _, c := range w.fetchCl {
			c.Close()
		}
		w.fetchCl = map[string]*rpc.Client{}
		jobs := w.jobs
		w.jobs = map[uint64]*workerJob{}
		w.mu.Unlock()

		for _, j := range jobs {
			// As in CleanJob: Once.Do orders the read of j.code after a build
			// an attempt may still be running.
			j.once.Do(func() { j.err = fmt.Errorf("distmr: worker %d is dead", w.id.Load()) })
			if j.code != nil && j.code.Close != nil {
				j.code.Close() //nolint:errcheck // best-effort service teardown
			}
		}
		if c := w.master.Load(); c != nil {
			c.Close()
		}
		// The store is wiped even on a crash: a dead tasktracker's local
		// disk is unreachable either way, and the listener is already
		// closed so no fetch can observe the difference.
		w.cfg.Store.Close() //nolint:errcheck // store teardown
		if crash && w.cfg.OnDeath != nil {
			go w.cfg.OnDeath(w)
		}
		close(w.done)
	})
}

func (w *Worker) accept(srv *rpc.Server) {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.mu.Lock()
		if w.dead.Load() {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		go func() {
			srv.ServeCodec(rpcutil.NewServerCodec(conn))
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
			conn.Close()
		}()
	}
}

// queueCompletion parks a finished attempt's result on the completion
// queue and wakes the heartbeat loop, which batches every completion
// accumulated by then onto one beat and encodes it there.
func (w *Worker) queueCompletion(desc *TaskDescriptor, res *TaskResult) {
	w.compMu.Lock()
	w.comps = append(w.comps, Completion{
		JobSeq: desc.JobSeq,
		Phase:  desc.Phase,
		Task:   desc.Task,
		Assign: desc.Assign,
		Result: res,
	})
	w.compMu.Unlock()
	select {
	case w.compKick <- struct{}{}:
	default: // a kick is already pending; the next beat carries us too
	}
}

// drainSpans moves every complete span subtree out of the worker's
// tracer into a sequenced batch on the shipping queue. Called when a
// task attempt concludes — before its completion is queued, so the
// attempt's spans ride the same (or an earlier) beat — and on every
// beat, to pick up spans that end outside task attempts.
func (w *Worker) drainSpans() {
	spans := w.tracer.Drain()
	if len(spans) == 0 {
		return
	}
	w.spanMu.Lock()
	w.spanBatchSeq++
	w.spanBatches = append(w.spanBatches, SpanBatch{Seq: w.spanBatchSeq, Spans: spans})
	w.spanMu.Unlock()
}

// telemetrySamples snapshots the worker registry's counters and
// histograms as absolute values for one beat, appending to counters and
// hists (the previous beat's slices, reused). The master diffs each
// against its last-seen snapshot for this worker before merging, so a
// beat resent after a lost acknowledgement merges nothing twice
// (DESIGN.md §9). Sorted for deterministic wire bytes.
func (w *Worker) telemetrySamples(counters []MetricSample, hists []HistSample) ([]MetricSample, []HistSample) {
	reg := w.tracer.Registry()
	for name, v := range reg.CounterSnapshot() {
		counters = append(counters, MetricSample{Name: name, Value: v})
	}
	slices.SortFunc(counters, func(a, b MetricSample) int { return strings.Compare(a.Name, b.Name) })
	for name, hv := range reg.HistogramSnapshot() {
		hists = append(hists, HistSample{Name: name, Count: hv.Count, Sum: hv.Sum, Buckets: hv.Buckets})
	}
	slices.SortFunc(hists, func(a, b HistSample) int { return strings.Compare(a.Name, b.Name) })
	return counters, hists
}

func (w *Worker) heartbeatLoop() {
	// Staggered start so a fleet of workers does not beat in lock-step.
	timer := time.NewTimer(rpcutil.Jitter(w.hbEvery))
	defer timer.Stop()
	var seq uint64
	misses := 0
	var lastRTT int64 // previous successful beat's measured round-trip
	var hb Heartbeat  // reused across beats so the steady state allocates nothing
	rttHist := w.tracer.Registry().Histogram(HistHeartbeatRTTNS)
	for {
		select {
		case <-w.stop:
			return
		case <-timer.C:
		case <-w.compKick:
			// A task finished: beat early so its completion lands now. The
			// beat carries every completion queued by the time it is sent.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		if w.dead.Load() {
			return // select does not prefer stop over a ready kick
		}
		seq++
		// Snapshot the pending completions; they stay queued until the
		// master acknowledges the beat, so a lost beat resends them
		// (at-least-once — the master discards entries it already settled).
		// The completion snapshot comes first: an attempt drains its spans
		// before queueing its completion, so a snapshot taken in this order
		// never carries a completion whose spans are not also aboard.
		w.compMu.Lock()
		pending := w.comps[:len(w.comps):len(w.comps)]
		w.compMu.Unlock()
		w.drainSpans() // pick up spans that ended since the last beat
		w.spanMu.Lock()
		batches := w.spanBatches[:len(w.spanBatches):len(w.spanBatches)]
		w.spanMu.Unlock()
		counters, hists := w.telemetrySamples(hb.Counters[:0], hb.Hists[:0])
		hb = Heartbeat{
			Worker:       w.id.Load(),
			Instance:     w.instance.Load(),
			Seq:          seq,
			Running:      w.running.Load(),
			StoreObjects: int64(w.cfg.Store.Objects()),
			StoreBytes:   w.cfg.Store.Bytes(),
			TasksDone:    w.tasksDone.Load(),
			Completions:  pending,
			SentUnixNano: time.Now().UnixNano(),
			RTTNanos:     lastRTT,
			SpanBatches:  batches,
			Counters:     counters,
			Hists:        hists,
		}
		var reply HeartbeatReply
		t0 := time.Now()
		err := w.master.Load().Call("Master.Heartbeat", &hb, &reply)
		if err == nil {
			// The measured round-trip rides the NEXT beat: the master pairs
			// it with that beat's send timestamp to estimate this worker's
			// clock offset (midpoint model, DESIGN.md §9).
			lastRTT = time.Since(t0).Nanoseconds()
			rttHist.Observe(lastRTT)
		}
		if err == nil && len(pending) > 0 {
			// The master has the batch (consumed it, or deliberately
			// discarded stale entries — either way resending is pointless).
			// Drop the sent prefix; later completions queued during the
			// call stay for the next beat.
			w.compMu.Lock()
			clear(w.comps[:len(pending)]) // the queue must not pin sent outputs
			w.comps = w.comps[len(pending):]
			w.compMu.Unlock()
		}
		if err == nil && len(batches) > 0 {
			// Same ack discipline for span batches: the sent prefix is done,
			// batches drained during the call wait for the next beat.
			w.spanMu.Lock()
			w.spanBatches = w.spanBatches[len(batches):]
			w.spanMu.Unlock()
		}
		if err != nil {
			misses++
			if misses >= w.cfg.HeartbeatMisses {
				w.die(false)
				return
			}
			// The client may be permanently shut (master crashed, its conns
			// closed). Redial fast; a restarted master on the same address
			// will answer the next beat with Unknown and we re-register.
			if c, derr := rpcutil.DialRPC(w.cfg.MasterAddr, rpcutil.Policy{
				Attempts: 1, DialTimeout: time.Second,
			}); derr == nil {
				if old := w.master.Swap(c); old != nil {
					old.Close()
				}
				w.log.Debug("redialed master", "misses", misses)
			}
		} else {
			misses = 0
			switch {
			case reply.Shutdown:
				w.die(false)
				return
			case reply.Retired:
				// Drain complete: the master holds (or handed off) all our
				// winning output, so exiting loses nothing.
				w.log.Info("drain complete, exiting")
				w.die(false)
				return
			case reply.Unknown:
				// The master has no record of us — it expired us or it
				// restarted. A draining worker just exits (its drain intent
				// died with the old record); otherwise rejoin under a fresh
				// identity so queued work can land here again.
				if w.draining.Load() {
					w.log.Info("master forgot draining worker, exiting")
					w.die(false)
					return
				}
				prev := w.id.Load()
				if rerr := w.register(prev); rerr != nil {
					misses++
					if misses >= w.cfg.HeartbeatMisses {
						w.die(false)
						return
					}
				} else {
					w.log.Info("re-registered with master", "was", prev, "now", w.id.Load())
				}
			}
		}
		timer.Reset(w.hbEvery)
	}
}

// readMasterFile fetches a file from the master's DFS. Reads are
// idempotent, so call failures are retried with a fresh dial for a
// bounded window: the cached master client goes stale when the master
// restarts, and waiting for the heartbeat loop's redial would burn the
// running attempt on what is only a transient gap. charged says the
// master already charged the read (ReadFileArgs.Charged).
func (w *Worker) readMasterFile(name string, charged bool) ([]byte, error) {
	var lastErr error
	for deadline := time.Now().Add(3 * time.Second); ; {
		var reply ReadFileReply
		err := w.master.Load().Call("Master.ReadFile", &ReadFileArgs{Name: name, Charged: charged}, &reply)
		if err == nil {
			return reply.Data, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			break
		}
		if c, derr := rpcutil.DialRPC(w.cfg.MasterAddr, rpcutil.Policy{
			Attempts: 1, DialTimeout: time.Second,
		}); derr == nil {
			if old := w.master.Swap(c); old != nil {
				old.Close()
			}
		}
		select {
		case <-w.stop:
			return nil, fmt.Errorf("distmr: read %q from master: %w", name, lastErr)
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("distmr: read %q from master: %w", name, lastErr)
}

// heldRoot prefixes the store objects that hold kept partitions.
const heldRoot = "held/"

func heldJobPrefix(job uint64) string { return heldRoot + strconv.FormatUint(job, 10) + "/" }

// heldName is where the partition ref names is kept.
func heldName(ref *PartRef) string {
	return heldJobPrefix(ref.JobSeq) + strconv.Itoa(ref.Task) + "/" + strconv.Itoa(ref.Assign)
}

// keepOutput keeps a completed reduce attempt's output partition in the
// store under the attempt's identity, for the next job to read here
// instead of through the master. The store adopts the buffer the
// completion also carries; neither writes to it. A job already pruned
// keeps nothing.
func (w *Worker) keepOutput(desc *TaskDescriptor, out []byte) {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	if desc.JobSeq < w.heldFloor {
		return
	}
	ref := PartRef{JobSeq: desc.JobSeq, Task: desc.Task, Assign: desc.Assign}
	if err := w.cfg.Store.Put(heldName(&ref), out); err != nil {
		w.log.Warn("keeping reduce output failed", "job", desc.JobName, "task", desc.Task, "err", err)
		return
	}
	w.heldJobs[desc.JobSeq] = struct{}{}
}

// pruneHeld drops the partitions of every job before floor.
func (w *Worker) pruneHeld(floor uint64) {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	if floor <= w.heldFloor {
		return
	}
	w.heldFloor = floor
	for job := range w.heldJobs {
		if job < floor {
			w.cfg.Store.RemovePrefix(heldJobPrefix(job))
			delete(w.heldJobs, job)
		}
	}
}

// HeldJobs lists, in no particular order, the jobs whose reduce outputs
// the worker still keeps for the next job to read.
func (w *Worker) HeldJobs() []uint64 {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	jobs := make([]uint64, 0, len(w.heldJobs))
	for job := range w.heldJobs {
		jobs = append(jobs, job)
	}
	return jobs
}

// readInput returns a task input the master sent as a reference: the kept
// partition when the worker still has it, the DFS file through the master
// otherwise (its read charge was taken at dispatch). consume drops the
// kept copy once read. local reports which it was.
func (w *Worker) readInput(ref *PartRef, consume bool) (data []byte, local bool, err error) {
	name := heldName(ref)
	if data, err := spill.ReadObject(w.cfg.Store, name); err == nil {
		if consume {
			w.cfg.Store.Remove(name) //nolint:errcheck // the bytes read stay valid either way
		}
		return data, true, nil
	}
	data, err = w.readMasterFile(ref.Name, true)
	return data, false, err
}

// jobState returns the cached per-job code and side files, building them
// on first use.
func (w *Worker) jobState(desc *TaskDescriptor) (*workerJob, error) {
	w.mu.Lock()
	j := w.jobs[desc.JobSeq]
	if j == nil {
		j = &workerJob{}
		w.jobs[desc.JobSeq] = j
	}
	w.mu.Unlock()
	j.once.Do(func() {
		factory, err := lookupKind(desc.Kind)
		if err != nil {
			j.err = err
			return
		}
		code, err := factory(desc.Params)
		if err != nil {
			j.err = fmt.Errorf("distmr: build job kind %q: %w", desc.Kind, err)
			return
		}
		side := make(map[string][]byte, len(desc.SideFiles))
		for _, name := range desc.SideFiles {
			data, err := w.readMasterFile(name, false)
			if err != nil {
				if code.Close != nil {
					code.Close() //nolint:errcheck // factory teardown on error
				}
				j.err = err
				return
			}
			side[name] = data
		}
		j.code = code
		j.env = &mapreduce.TaskEnv{
			Job:         desc.JobName,
			Round:       desc.Round,
			NewMapper:   code.NewMapper,
			NewReducer:  code.NewReducer,
			NewCombiner: code.NewCombiner,
			Side:        side,
			Service:     code.Service,
			Store:       w.cfg.Store,
			Tracer:      w.tracer,
		}
	})
	return j, j.err
}

// fetchClient returns a cached shuffle connection to another worker. The
// dial fast-fails (two attempts) rather than using the registration
// policy: a fetch from a dead worker is recoverable — the reduce reports
// the lost maps and the master re-runs them — so retrying a refused
// connection at length only delays that recovery.
func (w *Worker) fetchClient(addr string) (*rpc.Client, error) {
	w.mu.Lock()
	c := w.fetchCl[addr]
	w.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := rpcutil.DialRPC(addr, rpcutil.Policy{Attempts: 2, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	if prev := w.fetchCl[addr]; prev != nil {
		w.mu.Unlock()
		c.Close()
		return prev, nil
	}
	w.fetchCl[addr] = c
	w.mu.Unlock()
	return c, nil
}

func (w *Worker) dropFetchClient(addr string) {
	w.mu.Lock()
	if c := w.fetchCl[addr]; c != nil {
		delete(w.fetchCl, addr)
		c.Close()
	}
	w.mu.Unlock()
}

// StartTask accepts one task attempt and executes it asynchronously:
// the call returns on acceptance, and the result later rides a
// heartbeat as a Completion. An RPC-level failure here (worker death on
// the crash draw) still surfaces promptly to the master, which
// reassigns without consuming an attempt.
func (s *workerService) StartTask(desc *TaskDescriptor, _ *Empty) error {
	w := s.w
	if w.dead.Load() {
		return fmt.Errorf("distmr: worker %d is dead", w.id.Load())
	}
	w.log.Debug("task received",
		"job", desc.JobName, "phase", desc.Phase.String(),
		"task", desc.Task, "attempt", desc.Attempt, "assign", desc.Assign)
	// Injected worker crash, drawn synchronously at task receipt — before
	// any side effect — so a crashed attempt has submitted nothing to job
	// services and re-execution preserves exactly-once semantics. The
	// draw is keyed by the assignment sequence, so the reassigned attempt
	// draws fresh; staying in the handler keeps the death a prompt
	// transport error on this very call.
	if desc.CrashRate > 0 &&
		mapreduce.InjectHash(desc.Seed, desc.JobName, desc.Phase.String()+"-crash", desc.Task, desc.Assign) < desc.CrashRate {
		w.die(true, "job", desc.JobName, "phase", desc.Phase.String(),
			"task", desc.Task, "attempt", desc.Attempt)
		return fmt.Errorf("distmr: worker %d crashed", w.id.Load())
	}
	// This job reads what the previous one left; anything older is dead.
	w.pruneHeld(desc.JobSeq - 1)
	w.running.Add(1)
	go w.execute(desc)
	return nil
}

// execute runs one accepted task attempt to completion and queues its
// result for the next heartbeat.
func (w *Worker) execute(desc *TaskDescriptor) {
	defer w.running.Add(-1)
	// Injected slow-node latency, applied after the crash draw so the
	// fault coordinates are unchanged: the attempt runs late but runs the
	// same. Interruptible by death so a killed straggler's goroutine exits.
	if d := time.Duration(w.taskDelay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-w.stop:
			return
		}
	}
	if w.dead.Load() {
		return
	}
	j, err := w.jobState(desc)
	if err != nil {
		w.queueCompletion(desc, &TaskResult{Err: err.Error()})
		return
	}
	sp := w.tracer.Start(trace.CatTask, fmt.Sprintf("%s-%05d", desc.Phase, desc.Task), nil)
	sp.SetRemote(desc.Ctx)
	sp.SetInt("task", int64(desc.Task))
	sp.SetInt("assign", int64(desc.Assign))
	sp.SetInt("node", int64(desc.Node))
	sp.SetInt("worker", int64(w.id.Load()))
	sp.SetStr("phase", desc.Phase.String())
	sp.SetTID(int64(desc.Node) + 2)

	t0 := time.Now()
	var res *TaskResult
	if desc.Phase == PhaseMap {
		res = w.runMap(desc, j, sp)
	} else {
		res = w.runReduce(desc, j, sp)
	}
	res.DurNanos = time.Since(t0).Nanoseconds()
	w.tracer.Registry().Histogram(HistTaskServiceNS).Observe(res.DurNanos)
	if res.Err != "" {
		sp.SetStr("error", res.Err)
		decide(w.log, w.tracer, sp, slog.LevelWarn, "task failed",
			"job", desc.JobName, "phase", desc.Phase.String(),
			"task", desc.Task, "attempt", desc.Attempt, "err", res.Err)
	} else if len(res.LostMaps) == 0 {
		w.tasksDone.Add(1)
	}
	// End and drain before queueing the completion: the beat that carries
	// the completion (or an earlier one) then also carries this attempt's
	// spans, and the master imports spans before routing completions — so
	// by the time RunJob returns, every winner's spans are stitched.
	sp.End()
	w.drainSpans()
	if w.dead.Load() {
		// The worker died under the attempt, so whatever failed it was
		// the death (closed connections, a wiped store), not the task; the
		// master reassigns the lease without this result.
		return
	}
	w.queueCompletion(desc, res)
}

// Watch blocks until the worker dies or shuts down: the master keeps one
// Watch call pending per worker, so a crash surfaces as that call
// erroring out — the prompt failure signal the old per-task blocking
// lease provided, without holding an RPC open per running attempt.
func (s *workerService) Watch(_ *Empty, _ *Empty) error {
	<-s.w.stop
	return nil
}

// runMap executes one map attempt: mapreduce.ExecMap over the split,
// writing its sorted segments to the local store, where they wait to be
// served to reducers.
func (w *Worker) runMap(desc *TaskDescriptor, j *workerJob, sp *trace.Span) *TaskResult {
	split, local := desc.Split, false
	if desc.Held.Name != "" {
		var err error
		if split, local, err = w.readInput(&desc.Held, false); err != nil {
			return &TaskResult{Err: fmt.Sprintf("mapreduce: %s map task %d: split: %v", desc.JobName, desc.Task, err)}
		}
	}
	counters := mapreduce.NewCounters()
	r, err := mapreduce.ExecMap(j.env, &mapreduce.MapTask{
		Task:            desc.Task,
		Attempt:         desc.Attempt,
		Exec:            desc.Assign,
		Node:            desc.Node,
		Split:           split,
		Partitions:      desc.NumReducers,
		Budget:          desc.MemoryBudget,
		Prefix:          fmt.Sprintf("j%05d/map-%05d/a%d/", desc.JobSeq, desc.Task, desc.Assign),
		Seed:            desc.Seed,
		DiskFailureRate: desc.DiskFailureRate,
	}, counters, sp)
	if err != nil {
		return &TaskResult{Err: err.Error()}
	}
	return &TaskResult{
		InRecs:     r.InRecs,
		OutRecs:    r.OutRecs,
		RawBytes:   r.Out.Bytes,
		MaxFrame:   r.Out.MaxFrame,
		Spills:     r.Out.Spills,
		Parts:      r.Out.Parts,
		Counters:   counters.Snapshot(),
		InputLocal: local,
	}
}

// runReduce executes one reduce attempt: shuffle this partition's
// segments into the local store, then mapreduce.ExecReduce over them.
// Unfetchable segments abort before the reducer runs (so job services
// see no partial submissions) and are reported as lost map outputs for
// the master to recover. The attempt's fetched objects and merge passes
// live under its own prefix and go when it ends.
func (w *Worker) runReduce(desc *TaskDescriptor, j *workerJob, sp *trace.Span) *TaskResult {
	res := &TaskResult{}
	prefix := fmt.Sprintf("j%05d/reduce-%05d/a%d/", desc.JobSeq, desc.Task, desc.Assign)
	defer w.cfg.Store.RemovePrefix(prefix)
	segs, failed := w.shuffle(desc, prefix)
	for i := range desc.Sources {
		if failed[i] {
			res.LostMaps = append(res.LostMaps, desc.Sources[i].MapTask)
			res.LostFrom = append(res.LostFrom, desc.Sources[i].Worker)
		}
	}
	if len(res.LostMaps) > 0 {
		return res
	}

	var base []byte
	var err error
	switch {
	case desc.Held.Name != "":
		// A reduce is its base's last reader in the job: the map task over
		// the same partition read it first.
		base, res.InputLocal, err = w.readInput(&desc.Held, true)
	case desc.Schimmy:
		base, err = w.readMasterFile(mapreduce.PartName(desc.SchimmyBase, desc.Task), false)
	}
	if err != nil {
		res.Err = fmt.Sprintf("mapreduce: %s reduce task %d: schimmy base: %v", desc.JobName, desc.Task, err)
		return res
	}
	counters := mapreduce.NewCounters()
	r, err := mapreduce.ExecReduce(j.env, &mapreduce.ReduceTask{
		Task:      desc.Task,
		Exec:      desc.Assign,
		Node:      desc.Node,
		Segments:  segs,
		FanIn:     desc.MergeFanIn,
		TmpPrefix: prefix,
		Base:      base,
	}, counters, sp)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	w.keepOutput(desc, r.Output)
	res.Fetch, res.Inter = r.Fetch, r.Inter
	res.MergePasses, res.MaxMergeFanIn = r.MergePasses, r.MaxMergeFanIn
	res.MaxGroup = r.MaxGroup
	res.OutputData = r.Output
	res.OutRecords = r.OutRecords
	res.OutBytes = int64(len(r.Output))
	res.Counters = counters.Snapshot()
	return res
}

// fetchCall is one shuffle fetch of a reduce attempt: segments it reads
// from the worker at addr, or the handed-off spill object file it reads
// whole from the master's DFS. Either lands as one store object, and the
// segments are repointed at it.
type fetchCall struct {
	addr, file string
	segs       []*spill.Segment
	srcs       []int // the source each segment belongs to
	bytes      int64
	err        error
}

// shuffle makes a reduce attempt's segments readable in the local store
// and returns them in source order, the simulated engine's merge order,
// with the sources it could not fetch flagged. Local map output is read
// where it lies. Another worker's segments come in one FetchSegments call
// per worker; under a memory budget the calls are cut so that no reply
// exceeds max(budget, largest segment). A handed-off spill object is read
// whole from the master's DFS. Each reply is stored uncopied, as one
// object under prefix.
func (w *Worker) shuffle(desc *TaskDescriptor, prefix string) ([]spill.Segment, []bool) {
	self := w.id.Load()
	bySrc := make([][]spill.Segment, len(desc.Sources))
	var calls []*fetchCall
	open := make(map[string]*fetchCall) // the call a worker's or an object's next segment joins
	for i := range desc.Sources {
		src := &desc.Sources[i]
		bySrc[i] = slices.Clone(src.Segments)
		if src.Prefix == "" && src.Worker == self {
			continue
		}
		for j := range bySrc[i] {
			seg := &bySrc[i][j]
			key := src.Addr
			if src.Prefix != "" {
				key = src.Prefix + seg.Name
			}
			c := open[key]
			if c == nil || (src.Prefix == "" && desc.MemoryBudget > 0 &&
				c.bytes > 0 && c.bytes+seg.Bytes > desc.MemoryBudget) {
				c = &fetchCall{addr: src.Addr}
				if src.Prefix != "" {
					c.addr, c.file = "", key
				}
				open[key] = c
				calls = append(calls, c)
			}
			c.segs = append(c.segs, seg)
			c.srcs = append(c.srcs, i)
			c.bytes += seg.Bytes
		}
	}
	// One goroutine per source worker (and one for the DFS) runs its calls
	// in order; once one fails, the rest of its calls fail with it.
	runs := make(map[string][]int)
	for k, c := range calls {
		runs[c.addr] = append(runs[c.addr], k)
	}
	var wg sync.WaitGroup
	for _, run := range runs {
		wg.Add(1)
		go func(run []int) {
			defer wg.Done()
			var err error
			for _, k := range run {
				if err == nil {
					err = w.fetch(calls[k], fmt.Sprintf("%sfetch-%d", prefix, k), desc.Ctx)
				}
				calls[k].err = err
			}
		}(run)
	}
	wg.Wait()
	failed := make([]bool, len(desc.Sources))
	for _, c := range calls {
		if c.err != nil {
			for _, i := range c.srcs {
				failed[i] = true
			}
		}
	}
	var segs []spill.Segment
	for i := range bySrc {
		if !failed[i] {
			segs = append(segs, bySrc[i]...)
		}
	}
	return segs, failed
}

// fetch runs one fetch call and puts its reply into the store as the
// object name. A reply that is not exactly the requested bytes fails the
// call like a transport error. Every call records a shuffle span
// (stitched under the master's job span via ctx) and lands in the
// shuffle-fetch latency histogram, error paths included.
func (w *Worker) fetch(c *fetchCall, name string, ctx trace.Context) error {
	sp := w.tracer.Start(trace.CatShuffle, "shuffle-fetch", nil)
	sp.SetRemote(ctx)
	sp.SetInt("worker", int64(w.id.Load()))
	sp.SetInt("segments", int64(len(c.segs)))
	sp.SetInt("bytes", c.bytes)
	t0 := time.Now()
	defer func() {
		w.tracer.Registry().Histogram(HistShuffleFetchNS).ObserveSince(t0)
		sp.End()
	}()
	var data []byte
	if c.file != "" {
		d, err := w.readMasterFile(c.file, false)
		if err != nil {
			return err
		}
		data = d
	} else {
		args := &FetchSegmentsArgs{Ranges: make([]FetchRange, len(c.segs))}
		for k, s := range c.segs {
			args.Ranges[k] = FetchRange{Name: s.Name, Offset: s.Offset, Length: s.Bytes}
		}
		client, err := w.fetchClient(c.addr)
		if err != nil {
			return err
		}
		var reply FetchSegmentsReply
		if err := client.Call("Worker.FetchSegments", args, &reply); err != nil {
			w.dropFetchClient(c.addr)
			return err
		}
		if err := args.check(&reply); err != nil {
			return err
		}
		data = reply.Data
		var off int64
		for _, s := range c.segs {
			s.Offset, off = off, off+s.Bytes
		}
	}
	if err := w.cfg.Store.Put(name, data); err != nil {
		return err
	}
	for _, s := range c.segs {
		s.Name = name
	}
	return nil
}

// FetchSegments serves stored ranges of local spill objects to a
// fetching reducer (the network shuffle). Each range is checked against
// its object; the reply lists them uncopied where the store allows.
func (s *workerService) FetchSegments(args *FetchSegmentsArgs, reply *FetchSegmentsReply) error {
	if s.w.dead.Load() {
		return fmt.Errorf("distmr: worker %d is dead", s.w.id.Load())
	}
	reply.parts = make([][]byte, len(args.Ranges))
	for i, r := range args.Ranges {
		data, err := spill.ReadRange(s.w.cfg.Store, r.Name, r.Offset, r.Length)
		if err != nil {
			return err
		}
		reply.parts[i] = data
	}
	return nil
}

// Handoff serves the stored bytes of the listed spill objects to the
// master, which copies them into the job's DFS so this worker's winning
// map output survives its departure (graceful drain, winner persistence).
func (s *workerService) Handoff(desc *HandoffDescriptor, reply *HandoffReply) error {
	w := s.w
	if w.dead.Load() {
		return fmt.Errorf("distmr: worker %d is dead", w.id.Load())
	}
	reply.Data = make([][]byte, 0, len(desc.Segments))
	for _, name := range desc.Segments {
		data, err := spill.ReadObject(w.cfg.Store, name)
		if err != nil {
			return err
		}
		reply.Data = append(reply.Data, data)
	}
	w.log.Debug("handed off spill objects", "job", desc.JobSeq, "objects", len(desc.Segments))
	return nil
}

// CleanJob retires a job: close its service connections and delete its
// store objects (local map outputs and any attempt's leftovers).
func (s *workerService) CleanJob(args *CleanJobArgs, _ *Empty) error {
	w := s.w
	w.mu.Lock()
	j := w.jobs[args.JobSeq]
	delete(w.jobs, args.JobSeq)
	w.mu.Unlock()
	if j != nil {
		// An attempt the master abandoned (a reassigned lease)
		// can still be building this entry. Once.Do blocks until any
		// in-flight build finishes — and marks a never-built entry retired
		// — so reading j.code below is ordered after the build.
		j.once.Do(func() { j.err = fmt.Errorf("distmr: job %d retired", args.JobSeq) })
		if j.code != nil && j.code.Close != nil {
			j.code.Close() //nolint:errcheck // best-effort service teardown
		}
	}
	w.cfg.Store.RemovePrefix(fmt.Sprintf("j%05d/", args.JobSeq))
	// The job's own outputs stay for the next job; older ones go.
	w.pruneHeld(args.JobSeq)
	return nil
}

// Shutdown asks the worker to exit (used by the master's teardown; the
// heartbeat reply carries the same signal for workers mid-beat).
func (s *workerService) Shutdown(_ *Empty, _ *Empty) error {
	w := s.w
	go func() {
		// Give the reply a moment to flush before the connection closes.
		time.Sleep(20 * time.Millisecond)
		w.die(false)
	}()
	return nil
}
