package distmr

import (
	"errors"
	"fmt"
	"log/slog"
	"net/rpc"
	"slices"
	"strconv"
	"strings"
	"time"

	"ffmr/internal/dfs"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// event is one lease outcome delivered to the job's scheduler loop:
// either a completion routed off a heartbeat, or a StartTask dispatch
// that failed at the transport level (worker death on acceptance).
type event struct {
	ph     Phase
	task   int
	assign int
	w      *workerHandle
	res    *TaskResult // nil when the lease failed at the transport level
	err    error       // transport error (worker death on dispatch)
}

// dispatch is one in-flight lease: a task accepted by a worker via
// Worker.StartTask whose completion has not yet arrived on a heartbeat.
// The lease is bounded by the lease timeout and by the worker's life
// (checkLeases reclaims dispatches on dead workers).
type dispatch struct {
	w     *workerHandle
	start time.Time
}

// taskState is the scheduler's view of one task. The two failure axes are
// kept apart exactly as the engine's semantics require: body failures
// (TaskResult.Err, injected FailureRate draws) advance attempt and count
// "task failures", capped by Faults.MaxAttempts; lost leases advance only
// the assignment sequence and leave the counters untouched. Only the
// leases the task itself lost — a StartTask that killed its worker, an
// expired lease — count against Config.MaxAssigns: a lease that died with
// a worker felled by another task is not charged, as Hadoop does not
// count an attempt killed by node loss.
type taskState struct {
	ph   Phase
	task int
	node int

	attempt  int  // body-attempt number: the simulated engine's coordinate
	admitted bool // current attempt survived the injected-failure draws
	assigns  int  // dispatches so far, reassignments included
	charged  int  // lost leases that count against MaxAssigns
	lastErr  error

	queued bool
	parked bool // reduce waiting for lost map outputs to be re-created
	done   bool
	// enqueuedAt is when the task last entered the run queue; launch
	// observes enqueue-to-dispatch into the queue-wait histogram.
	enqueuedAt time.Time

	winner  *TaskResult
	winnerW *workerHandle
	winnerA int // the winning attempt's wire Assign
	dur     time.Duration

	// held is where the task's input — a map task's whole-file split, a
	// schimmy reduce task's base — is also kept: the worker whose reduce
	// attempt wrote it in the previous job. nil for inputs the host or
	// another master wrote, and for split pieces of larger files.
	held *heldPart

	// handoff: the winning output lives in the master's DFS (drain
	// hand-off or restart rehydration), not on a worker. Reducers fetch
	// it via Master.ReadFile, and losing a worker never invalidates it.
	// persisted: PersistState copied the winner's segments and manifest
	// to DFS at completion, so a hand-off is a flag flip, not a copy.
	handoff   bool
	persisted bool

	outstanding map[int]*dispatch // assign -> in-flight lease
}

// jobRun executes one job. A single goroutine (run) owns all task state;
// lease goroutines communicate through the events channel only.
type jobRun struct {
	m      *Master
	c      *mapreduce.Cluster
	job    *mapreduce.Job
	seq    uint64
	tracer *trace.Tracer
	log    *slog.Logger
	events chan event
	cancel chan struct{}

	// jobSpan is the master-side span worker-shipped spans stitch under;
	// its id travels to workers in every descriptor's trace context.
	// started and busyNS (winning attempts' summed execution time) feed
	// the live idle-fraction scaling hint.
	jobSpan *trace.Span
	started time.Time
	busyNS  int64

	counters    *mapreduce.Counters // master-side: "task failures"
	maxAttempts int

	splits  []mapreduce.Split
	maps    []taskState
	reduces []taskState
	queue   []*taskState
	free    []*workerHandle // next's scratch

	mapsDone    int
	reducesDone int
	reducesOn   bool // reduce phase opened (output prefix cleared)

	// assignBase offsets every wire Assign by the master generation's
	// epoch (PersistState only), so (task, exec) submission keys, worker
	// store prefixes and crash draws never collide with a previous
	// master's partial executions of the same job.
	assignBase int
	// segPrefix is where handed-off and persisted segments live in DFS.
	segPrefix string

	lastLive time.Time
}

// epochAssigns is how many assignments of a task one master generation
// may make before its Assign values would run into the next generation's.
// Leases lost to other tasks' worker deaths are not capped by MaxAssigns,
// so the stride is far above any real count.
const epochAssigns = 1 << 16

// statePrefix is where a job persists its recovery state in the DFS:
// an epoch counter, per-task winner manifests, and the winners' map
// output segments. Keyed by job name (stable across master restarts).
func statePrefix(jobName string) string { return "distmr-state/" + jobName + "/" }

// taskManifest is the DFS record of one task winner (wire-encoded by
// encodeManifest), enough to rehydrate the scheduler's view of that task
// after a master restart.
type taskManifest struct {
	Phase   Phase
	Task    int
	Attempt int
	Result  TaskResult
}

// heldPart is the DFS tag on an output partition the master wrote from a
// winning reduce attempt: the worker that ran it keeps the same bytes
// under ref. The tag dies with the file's contents (dfs.FS.SetTag), and
// a handle belongs to one master, so a tag can only send a task to the
// worker that kept exactly those bytes; that worker may still have
// dropped them, and then reads the file through Master.ReadFile.
type heldPart struct {
	w   *workerHandle
	ref PartRef
}

// heldBy returns the tag a file carries from a winning reduce attempt,
// or nil.
func heldBy(fs *dfs.FS, name string) *heldPart {
	h, _ := fs.Tag(name).(*heldPart)
	return h
}

// close ends the job run: every dispatch goroutine still in flight is
// released, and worker slots held by dispatches whose completions will
// never be consumed (the job failed with leases still out) are returned
// so the next job starts with clean slot accounting. The caller must
// have retired the completion sink first.
func (jr *jobRun) close() {
	close(jr.cancel)
	reclaim := func(tasks []taskState) {
		for i := range tasks {
			ts := &tasks[i]
			for assign, d := range ts.outstanding {
				delete(ts.outstanding, assign)
				jr.m.release(d.w)
			}
		}
	}
	reclaim(jr.maps)
	reclaim(jr.reduces)
}

func (jr *jobRun) run() (*mapreduce.Result, error) {
	job, c := jr.job, jr.c
	start := time.Now()
	jobSpan := jr.tracer.Start(trace.CatJob, job.Name, job.Parent)
	defer jobSpan.End()
	jr.jobSpan = jobSpan
	jr.started = start

	jr.counters = mapreduce.NewCounters()
	jr.maxAttempts = c.Fault.MaxAttempts
	if jr.maxAttempts < 1 {
		jr.maxAttempts = 1
	}

	res := &mapreduce.Result{}
	var held []*heldPart // per split
	for _, in := range job.Inputs {
		ss, sz, err := c.PlanSplits(in)
		if err != nil {
			return nil, err
		}
		var h *heldPart
		if len(ss) == 1 && int64(len(ss[0].Data)) == sz {
			h = heldBy(c.FS, in) // a whole-file split can be read where it was written
		}
		for range ss {
			held = append(held, h)
		}
		jr.splits = append(jr.splits, ss...)
		res.InputBytes += sz
	}
	res.MapTasks = len(jr.splits)
	res.ReduceTasks = job.NumReducers

	jr.segPrefix = statePrefix(job.Name) + "seg/"
	jr.maps = make([]taskState, len(jr.splits))
	for i := range jr.maps {
		jr.maps[i] = taskState{ph: PhaseMap, task: i, node: jr.splits[i].Node, held: held[i], outstanding: map[int]*dispatch{}}
	}
	jr.reduces = make([]taskState, job.NumReducers)
	for p := range jr.reduces {
		jr.reduces[p] = taskState{ph: PhaseReduce, task: p, node: p % c.Nodes, outstanding: map[int]*dispatch{}}
		if job.Schimmy {
			jr.reduces[p].held = heldBy(c.FS, mapreduce.PartName(job.SchimmyBase, p))
		}
	}
	if jr.m.cfg.PersistState {
		jr.restoreState()
	}
	for i := range jr.maps {
		jr.enqueue(&jr.maps[i]) // enqueue skips restored (done) tasks
	}
	if jr.mapsDone == len(jr.maps) {
		jr.openReduce()
	}
	// Open the completion sink only now: the sinkMu handover orders every
	// write above (assignBase, task slices) before any heartbeat handler
	// routes a completion into this run. RunJob retires the sink before
	// close(), so no completion outlives the run's event loop.
	jr.m.setSink(jr)

	jr.log.Debug("job start", "maps", len(jr.maps), "reduces", len(jr.reduces))
	jr.lastLive = time.Now()
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()

	for jr.reducesDone < len(jr.reduces) || !jr.reducesOn {
		if err := jr.dispatchReady(); err != nil {
			return nil, err
		}
		jr.publishStatus()
		select {
		case ev := <-jr.events:
			if err := jr.handle(ev); err != nil {
				return nil, err
			}
		case <-ticker.C:
			jr.m.checkHeartbeats()
			jr.checkLeases()
			jr.checkDrains()
			if err := jr.checkLiveness(); err != nil {
				return nil, err
			}
		case <-jr.m.shutCh:
			return nil, fmt.Errorf("distmr: master shut down during job %q", job.Name)
		}
	}
	jr.publishStatus()

	// Assemble the Result from winning attempts only, in task order, so
	// every statistic matches the simulated engine's single-execution
	// accounting regardless of retries or crashes along the way.
	mapDur := make([]time.Duration, len(jr.maps))
	for i := range jr.maps {
		r := jr.maps[i].winner
		mapDur[i] = jr.maps[i].dur
		res.AddMapWinner(&mapreduce.MapResult{InRecs: r.InRecs, OutRecs: r.OutRecs,
			Out: &spill.Output{Bytes: r.RawBytes, MaxFrame: r.MaxFrame, Spills: r.Spills}})
	}
	reduceDur := make([]time.Duration, len(jr.reduces))
	reduceFetch := make([]int64, len(jr.reduces))
	for p := range jr.reduces {
		r := jr.reduces[p].winner
		reduceDur[p] = jr.reduces[p].dur
		reduceFetch[p] = r.Fetch
		res.AddReduceWinner(&mapreduce.ReduceResult{Fetch: r.Fetch, Inter: r.Inter,
			MergePasses: r.MergePasses, MaxMergeFanIn: r.MaxMergeFanIn, MaxGroup: r.MaxGroup,
			Output: r.OutputData, OutRecords: r.OutRecords}, true)
		name := mapreduce.PartName(job.OutputPrefix, p)
		if err := c.FS.WriteFile(name, r.OutputData); err != nil {
			return nil, err
		}
		if w := jr.reduces[p].winnerW; w != nil {
			c.FS.SetTag(name, &heldPart{w: w, ref: PartRef{JobSeq: jr.seq, Task: p, Assign: jr.reduces[p].winnerA, Name: name}})
		}
	}

	all := make(map[string]int64)
	addAll := func(m map[string]int64) {
		for k, v := range m {
			all[k] += v
		}
	}
	for i := range jr.maps {
		addAll(jr.maps[i].winner.Counters)
	}
	for p := range jr.reduces {
		addAll(jr.reduces[p].winner.Counters)
	}
	// Each map task read a split and each schimmy reduce a base; the
	// winners say where from.
	for _, tasks := range [][]taskState{jr.maps, jr.reduces} {
		for i := range tasks {
			if ts := &tasks[i]; ts.ph == PhaseMap || job.Schimmy {
				name := CounterInputReadsMaster
				if ts.winner.InputLocal {
					name = CounterInputReadsLocal
				}
				jr.counters.Add(name, 1)
			}
		}
	}
	addAll(jr.counters.Snapshot())
	res.Counters = all
	reg := jr.tracer.Registry()
	for _, name := range []string{CounterInputReadsLocal, CounterInputReadsMaster, CounterMasterBytes} {
		reg.Counter(name).Add(all[name])
		jobSpan.SetInt(name, all[name])
	}
	c.Finish(job, res, start, jobSpan, jr.log, jr.splits, mapDur, reduceDur, reduceFetch)
	return res, nil
}

// publishStatus hands the admin server an immutable snapshot of the
// scheduler's progress. Only the scheduler goroutine calls this, so
// reading the task states needs no lock; the handover itself goes
// through the master's statusMu.
func (jr *jobRun) publishStatus() {
	js := &obsv.JobStatus{
		Name:        jr.job.Name,
		Round:       jr.job.Round,
		Maps:        len(jr.maps),
		MapsDone:    jr.mapsDone,
		Reduces:     len(jr.reduces),
		ReducesDone: jr.reducesDone,
	}
	for i := range jr.maps {
		js.InFlight += len(jr.maps[i].outstanding)
		if jr.maps[i].queued {
			js.Queued++
		}
	}
	for p := range jr.reduces {
		js.InFlight += len(jr.reduces[p].outstanding)
		if jr.reduces[p].queued {
			js.Queued++
		}
		if jr.reduces[p].parked {
			js.Parked++
		}
	}
	// Live idle fraction: 1 - (winning execution time) / (live workers x
	// job elapsed), clamped. It under-counts busy time (running attempts
	// and losers are excluded), so it is an upper bound — the offline
	// analyzer computes the exact per-round figure from the stitched
	// trace; this is the cheap always-on scaling hint.
	idle := 0.0
	if live := jr.m.LiveWorkers(); live > 0 && !jr.started.IsZero() {
		if elapsed := time.Since(jr.started).Nanoseconds(); elapsed > 0 {
			idle = 1 - float64(jr.busyNS)/float64(int64(live)*elapsed)
			if idle < 0 {
				idle = 0
			}
			if idle > 1 {
				idle = 1
			}
		}
	}
	jr.m.setJobStatus(js, idle)
}

// openReduce transitions the job into its reduce phase: the output prefix
// is cleared (as the engine does between phases) and every reduce task
// becomes schedulable.
func (jr *jobRun) openReduce() {
	jr.reducesOn = true
	jr.c.FS.DeletePrefix(jr.job.OutputPrefix)
	for p := range jr.reduces {
		jr.enqueue(&jr.reduces[p])
	}
}

func (jr *jobRun) enqueue(ts *taskState) {
	if !ts.queued && !ts.done {
		ts.queued = true
		ts.enqueuedAt = time.Now()
		jr.queue = append(jr.queue, ts)
	}
}

func (jr *jobRun) slots() int {
	if jr.m.cfg.SlotsPerWorker > 0 {
		return jr.m.cfg.SlotsPerWorker
	}
	if jr.c.SlotsPerNode > 0 {
		return jr.c.SlotsPerNode
	}
	return 1
}

// dispatchReady hands queued tasks to workers until no eligible task
// remains or no worker has a free slot. A reduce is only eligible while
// every map task is done: its descriptor snapshots the map winners'
// segment locations, so launching one while a lost map is being re-run
// would silently merge without that map's output.
func (jr *jobRun) dispatchReady() error {
	for {
		ts, w := jr.next()
		if ts == nil {
			return nil // nothing eligible, or no capacity; the ticker retries
		}
		if !ts.admitted {
			if err := jr.admit(ts); err != nil {
				jr.m.release(w)
				return err
			}
		}
		if ts.charged >= jr.m.cfg.MaxAssigns {
			jr.m.release(w)
			return fmt.Errorf("distmr: %s %s task %d abandoned after %d lost leases: %v",
				jr.job.Name, ts.ph, ts.task, ts.charged, ts.lastErr)
		}
		jr.launch(ts, w)
	}
}

// next takes the next lease off the queue and claims its worker slot.
// Free workers are scanned, most free slots first, for a queued task
// whose input they hold; failing that, the first eligible task goes to
// the freest worker, so no slot idles while a task waits.
func (jr *jobRun) next() (*taskState, *workerHandle) {
	eligible := func(t *taskState) bool { return t.ph == PhaseMap || jr.mapsDone == len(jr.maps) }
	for {
		jr.queue = slices.DeleteFunc(jr.queue, func(t *taskState) bool {
			if t.done {
				t.queued = false
			}
			return t.done
		})
		first := slices.IndexFunc(jr.queue, eligible)
		if first < 0 {
			return nil, nil
		}
		jr.free = jr.m.freeWorkers(jr.free[:0], jr.slots())
		if len(jr.free) == 0 {
			return nil, nil
		}
		at, w := first, jr.free[0]
	scan:
		for _, fw := range jr.free {
			for i, t := range jr.queue {
				if t.held != nil && t.held.w == fw && eligible(t) {
					at, w = i, fw
					break scan
				}
			}
		}
		if !jr.m.claim(w, jr.slots()) {
			continue // w died or filled up since it was listed
		}
		ts := jr.queue[at]
		jr.queue = slices.Delete(jr.queue, at, at+1)
		ts.queued = false
		return ts, w
	}
}

// admit consumes the injected-failure draws for the task's next attempts,
// using the exact coordinates and counter the simulated engine's
// runAttempts uses, so a given Faults.Seed injects the same failures and
// reports the same "task failures" count on either backend.
func (jr *jobRun) admit(ts *taskState) error {
	rate := jr.c.Fault.FailureRate
	for {
		if ts.attempt >= jr.maxAttempts {
			return fmt.Errorf("mapreduce: %s %s task %d failed after %d attempts: %w",
				jr.job.Name, ts.ph, ts.task, jr.maxAttempts, ts.lastErr)
		}
		if rate > 0 && mapreduce.InjectHash(jr.c.Fault.Seed, jr.job.Name, ts.ph.String(), ts.task, ts.attempt) < rate {
			jr.counters.Add("task failures", 1)
			ts.lastErr = fmt.Errorf("mapreduce: %s %s task %d attempt %d: injected worker failure",
				jr.job.Name, ts.ph, ts.task, ts.attempt)
			ts.attempt++
			continue
		}
		ts.admitted = true
		return nil
	}
}

// launch starts one lease: the task descriptor is handed to the worker
// via the non-blocking Worker.StartTask, and the lease lives as an
// outstanding dispatch until its completion arrives on a heartbeat
// (routed through acceptCompletions) or checkLeases reclaims it. Only a
// failed StartTask posts an event from here — a prompt worker-death
// signal (the injected crash draw happens inside the accepting handler).
// The worker slot is held by the dispatch and released wherever the
// dispatch is consumed: handle, checkLeases, or close.
func (jr *jobRun) launch(ts *taskState, w *workerHandle) {
	assign := ts.assigns
	ts.assigns++
	ts.outstanding[assign] = &dispatch{w: w, start: time.Now()}
	if !ts.enqueuedAt.IsZero() {
		// Queue wait: enqueue to dispatch. A re-enqueue restamps, so each
		// observation is one queue pass.
		jr.tracer.Registry().Histogram(HistQueueWaitNS).ObserveSince(ts.enqueuedAt)
		ts.enqueuedAt = time.Time{}
	}
	desc := jr.descriptor(ts, assign, w)
	jr.counters.Add(CounterMasterBytes, int64(len(desc.Split)))
	ph, task := ts.ph, ts.task
	// The dispatch RPC gets its own master-side span and round-trip
	// histogram entry: against the worker-side task span it shows how
	// much of a wave is transport versus execution.
	rpcSpan := jr.tracer.Start(trace.CatRPC, fmt.Sprintf("start-task %s-%05d", ph, task), jr.jobSpan)
	rpcSpan.SetInt("to_worker", int64(w.id))
	rpcStart := time.Now()
	go func() {
		call := w.client.Go("Worker.StartTask", desc, &Empty{}, make(chan *rpc.Call, 1))
		select {
		case <-call.Done:
			jr.tracer.Registry().Histogram(HistStartTaskNS).ObserveSince(rpcStart)
			rpcSpan.End()
			if call.Error == nil {
				return // accepted; the result will ride a heartbeat
			}
			ev := event{ph: ph, task: task, assign: assign, w: w, err: call.Error}
			select {
			case jr.events <- ev:
			case <-jr.cancel:
			}
		case <-jr.cancel:
			rpcSpan.End()
		}
	}()
}

// acceptCompletions routes a heartbeat's completion batch into the
// scheduler's event loop. It runs on the heartbeat handler's goroutine
// (after the master's registry lock is released): stale entries — wrong
// job, out-of-range task — are dropped here, and already-settled
// assignments die in handle's outstanding lookup, so the at-least-once
// resend discipline worker-side needs no master-side acknowledgement
// protocol.
func (jr *jobRun) acceptCompletions(w *workerHandle, comps []Completion) {
	for i := range comps {
		c := &comps[i]
		if c.JobSeq != jr.seq {
			continue // a previous job (or master generation); settled long ago
		}
		switch c.Phase {
		case PhaseMap:
			if c.Task < 0 || c.Task >= len(jr.maps) {
				continue
			}
		case PhaseReduce:
			if c.Task < 0 || c.Task >= len(jr.reduces) {
				continue
			}
		default:
			continue
		}
		jr.counters.Add(CounterMasterBytes, int64(len(c.Result.OutputData)))
		ev := event{ph: c.Phase, task: c.Task, assign: c.Assign - jr.assignBase, w: w, res: c.Result}
		select {
		case jr.events <- ev:
		case <-jr.cancel:
			return
		}
	}
}

// descriptor builds the wire task for one assignment to w. Everything a
// worker needs travels here, so any worker can execute any assignment of
// the task and produce the identical result. An input w holds is named
// instead of shipped; the base read it replaces is charged to the DFS
// here (a split's was charged when the job planned its splits).
func (jr *jobRun) descriptor(ts *taskState, assign int, w *workerHandle) *TaskDescriptor {
	c, job := jr.c, jr.job
	d := &TaskDescriptor{
		JobSeq:          jr.seq,
		JobName:         job.Name,
		Kind:            job.Spec.Kind,
		Params:          job.Spec.Params,
		Phase:           ts.ph,
		Task:            ts.task,
		Attempt:         ts.attempt,
		Assign:          jr.assignBase + assign,
		Node:            ts.node,
		Round:           job.Round,
		NumReducers:     job.NumReducers,
		MemoryBudget:    c.MemoryBudget,
		MergeFanIn:      c.MergeFanIn,
		Seed:            c.Fault.Seed,
		CrashRate:       c.Fault.WorkerCrashRate,
		DiskFailureRate: c.Fault.DiskFailureRate,
		SideFiles:       job.SideFiles,
		Ctx:             jr.ctx(),
	}
	local := ts.held != nil && ts.held.w == w
	if local {
		d.Held = ts.held.ref
	}
	if ts.ph == PhaseMap {
		if !local {
			d.Split = jr.splits[ts.task].Data
		}
	} else {
		d.Schimmy = job.Schimmy
		d.SchimmyBase = job.SchimmyBase
		d.Sources = jr.sources(ts.task)
		if local {
			c.FS.ChargeRead(d.Held.Name) //nolint:errcheck // the base exists: the job tagged it at start
		}
	}
	return d
}

// decide reports a job-level decision to slog and as an event on the job
// span (see decide).
func (jr *jobRun) decide(level slog.Level, msg string, kv ...any) {
	decide(jr.log, jr.tracer, jr.jobSpan, level, msg, kv...)
}

// ctx is the trace position every descriptor of this job carries (§9):
// worker-recorded root spans stitch under the job span named here.
func (jr *jobRun) ctx() trace.Context {
	return trace.Context{
		Run:   jr.job.Parent.ID(),
		Job:   int64(jr.seq),
		Round: int64(jr.job.Round),
		Span:  jr.jobSpan.ID(),
	}
}

// importSpans stitches one worker span batch into the job tracer. Spans
// arrive in id order with parents before children (Drain's contract), so
// one forward pass remaps worker-local parent ids; root spans attach
// under the master-side span their shipped context names. offset is the
// worker's estimated clock offset; spans from another job sequence (a
// late batch outliving its job) are dropped. Runs on the heartbeat
// handler's goroutine — the tracer carries its own lock.
func (jr *jobRun) importSpans(spans []trace.ShippedSpan, offset int64) {
	remap := make(map[int64]int64, len(spans))
	for i := range spans {
		sp := &spans[i]
		if sp.Remote.Job != int64(jr.seq) {
			continue
		}
		parent := sp.Remote.Span
		if sp.Parent != 0 {
			if p, ok := remap[sp.Parent]; ok {
				parent = p
			}
		}
		remap[sp.ID] = jr.tracer.Import(&trace.ImportedSpan{
			Parent: parent,
			Name:   sp.Name,
			Cat:    sp.Cat,
			TID:    sp.TID,
			Start:  time.Unix(0, sp.Start.UnixNano()+offset),
			Dur:    sp.Dur,
			Attrs:  sp.Attrs,
		})
	}
}

// sources lists, in map-task order, where a reduce partition's segments
// live right now — the same order the simulated engine's partSegments
// walks, so merge statistics agree.
func (jr *jobRun) sources(p int) []MapSource {
	srcs := make([]MapSource, 0, len(jr.maps))
	for i := range jr.maps {
		mt := &jr.maps[i]
		if mt.winner == nil || p >= len(mt.winner.Parts) {
			continue
		}
		segs := mt.winner.Parts[p]
		if len(segs) == 0 {
			continue
		}
		if mt.handoff {
			// The output was handed off (drain) or rehydrated (restart):
			// it is served from DFS, with metadata untouched, so fetch and
			// inter-node accounting stay byte-identical.
			srcs = append(srcs, MapSource{MapTask: i, Prefix: jr.segPrefix, Segments: segs})
		} else {
			srcs = append(srcs, MapSource{MapTask: i, Worker: mt.winnerW.id, Addr: mt.winnerW.addr, Segments: segs})
		}
	}
	return srcs
}

// handle processes one lease outcome. Duplicate completions (a worker's
// at-least-once resend, or a completion racing the lease scan) die on
// the outstanding lookup: the first consumer deleted the dispatch, so
// the duplicate finds nothing and is dropped without effect.
func (jr *jobRun) handle(ev event) error {
	var ts *taskState
	if ev.ph == PhaseMap {
		ts = &jr.maps[ev.task]
	} else {
		ts = &jr.reduces[ev.task]
	}
	d := ts.outstanding[ev.assign]
	if d == nil {
		return nil // retired dispatch (task already concluded, or a resend)
	}
	delete(ts.outstanding, ev.assign)
	jr.m.release(d.w)

	if ev.err != nil {
		// Transport failure on dispatch: the worker is gone. The task is
		// reassigned on a fresh assignment without consuming a body
		// attempt — a worker death is not a task failure.
		jr.m.markDead(ev.w)
		jr.leaseFailed(ts, d, ev.assign, ev.err, jr.ownCrash(ts, ev.assign))
		return nil
	}

	res := ev.res
	if ts.done {
		return nil // the task already concluded; this result is discarded
	}
	if res.Err != "" {
		jr.counters.Add("task failures", 1)
		ts.lastErr = errors.New(res.Err)
		jr.decide(slog.LevelWarn, "task attempt failed",
			"phase", ts.ph.String(), "task", ts.task, "attempt", ts.attempt,
			"worker", ev.w.id, "err", res.Err)
		ts.attempt++
		ts.admitted = false
		jr.enqueue(ts)
		return nil
	}
	if len(res.LostMaps) > 0 {
		// The shuffle fetch failed: those map outputs died with their
		// worker. Park the reduce, re-run the maps, re-dispatch when the
		// outputs exist again.
		jr.decide(slog.LevelWarn, "shuffle fetch lost map outputs",
			"reduce", ts.task, "worker", ev.w.id, "lost_maps", len(res.LostMaps))
		ts.parked = true
		for i, mt := range res.LostMaps {
			var from uint64
			if i < len(res.LostFrom) {
				from = res.LostFrom[i]
			}
			jr.invalidateMap(mt, from)
		}
		if jr.mapsDone == len(jr.maps) {
			// Every lost map was already re-run by the time this report
			// arrived; the reduce can go straight back out.
			jr.unpark()
		}
		return nil
	}

	ts.done = true
	ts.parked = false
	ts.winner = res
	ts.winnerW = ev.w
	ts.winnerA = jr.assignBase + ev.assign
	ts.dur = time.Duration(res.DurNanos)
	jr.busyNS += res.DurNanos
	if jr.m.cfg.PersistState {
		jr.persistWinner(ts)
	}
	if ev.ph == PhaseMap {
		jr.mapsDone++
		if jr.mapsDone == len(jr.maps) {
			if !jr.reducesOn {
				jr.openReduce()
			} else {
				jr.unpark()
			}
		}
	} else {
		jr.reducesDone++
	}
	return nil
}

// leaseFailed concludes a dispatch that died with its worker (StartTask
// transport error, lease expiry, or the worker dying mid-execution).
// The dispatch has already been removed and its slot released; this
// handles the task-level consequence: the task is reassigned without
// consuming an attempt.
// charge says the lease was lost to the task itself (see taskState).
func (jr *jobRun) leaseFailed(ts *taskState, d *dispatch, assign int, err error, charge bool) {
	if ts.done {
		return
	}
	ts.lastErr = err
	if charge {
		ts.charged++
	}
	jr.m.registry().Counter(CounterReassigns).Add(1)
	jr.decide(slog.LevelWarn, "lease failed, reassigning",
		"phase", ts.ph.String(), "task", ts.task, "assign", assign,
		"worker", d.w.id, "err", err)
	jr.enqueue(ts)
}

// ownCrash reports whether a failed StartTask was the task's own doing.
// Under crash injection a worker dies at StartTask only on the draw of
// the task it is handed, which the master can replay: a failure without
// that draw met a worker another task's draw had felled. Without
// injection every StartTask failure counts.
func (jr *jobRun) ownCrash(ts *taskState, assign int) bool {
	f := jr.c.Fault
	return f.WorkerCrashRate <= 0 || mapreduce.InjectHash(f.Seed, jr.job.Name,
		ts.ph.String()+"-crash", ts.task, jr.assignBase+assign) < f.WorkerCrashRate
}

// checkLeases reclaims outstanding dispatches whose worker has died (the
// watch or heartbeat machinery marked it) or whose lease timed out. This
// replaces the old per-dispatch timer goroutine: with completions
// arriving on heartbeats instead of per-task calls, worker death no
// longer errors an in-flight RPC per task, so the scan is where those
// leases come back.
func (jr *jobRun) checkLeases() {
	now := time.Now()
	scan := func(tasks []taskState) {
		for i := range tasks {
			ts := &tasks[i]
			for assign, d := range ts.outstanding {
				alive := jr.m.workerAlive(d.w)
				expired := now.Sub(d.start) > jr.m.cfg.LeaseTimeout
				if alive && !expired {
					continue
				}
				delete(ts.outstanding, assign)
				jr.m.release(d.w)
				var err error
				if !alive {
					err = fmt.Errorf("distmr: worker %d died holding the lease", d.w.id)
				} else {
					err = fmt.Errorf("distmr: lease expired after %v", jr.m.cfg.LeaseTimeout)
					jr.m.markDead(d.w)
				}
				jr.leaseFailed(ts, d, assign, err, alive)
			}
		}
	}
	scan(jr.maps)
	scan(jr.reduces)
}

// invalidateMap returns a completed map task to the queue because its
// winning output is unreachable. from is the worker the failed fetch
// targeted: if the task's current winner lives elsewhere (it was already
// re-run after that worker died), the output the next dispatch will be
// pointed at is fine and nothing is invalidated — otherwise every
// straggling reduce that fetched from the dead worker would re-run the
// map once more, burning an assignment each time.
func (jr *jobRun) invalidateMap(mt int, from uint64) {
	if mt < 0 || mt >= len(jr.maps) {
		return
	}
	ts := &jr.maps[mt]
	if !ts.done {
		return // already being re-run
	}
	if ts.handoff {
		return // output lives in DFS; no worker death can lose it
	}
	if ts.persisted {
		// The winner's segments are already in DFS (PersistState copies
		// them at completion): repoint the reduce at them instead of
		// re-executing the map — the drain invariant, applied to a crash.
		ts.handoff = true
		jr.m.registry().Counter(CounterHandoffSegments).Add(1)
		jr.decide(slog.LevelInfo, "lost map served from persisted state", "map", mt, "worker", from)
		return
	}
	if ts.winnerW != nil && ts.winnerW.id != from {
		return // winner already moved to another worker
	}
	ts.done = false
	ts.winner = nil
	ts.winnerW = nil
	jr.mapsDone--
	jr.m.registry().Counter(CounterLostMapRecoveries).Add(1)
	jr.decide(slog.LevelWarn, "re-running map with lost outputs", "map", mt, "worker", from)
	jr.enqueue(ts)
}

// checkDrains completes graceful drains while the job runs. A draining
// worker receives no new leases (freeWorkers skips it); once its running
// attempts have finished, every winning map output still living on it is
// handed off through DFS, its tasks' sources are repointed, and only
// then is the worker deregistered. Completed map tasks are never
// re-executed by a drain — that is the invariant the attempt counters in
// the drain tests pin down.
func (jr *jobRun) checkDrains() {
	for _, w := range jr.m.drainingWorkers() {
		if jr.m.workerRunning(w) > 0 {
			continue // running attempts finish first
		}
		if !jr.handoffWorker(w) {
			continue
		}
		jr.m.completeDrain(w)
	}
}

// spillObjects lists the store objects that hold a map output's segments,
// each once: the segments of one spill, a partition each, share one.
func spillObjects(parts [][]spill.Segment) []string {
	var names []string
	seen := make(map[string]bool)
	for _, segs := range parts {
		for j := range segs {
			if name := segs[j].Name; !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

// handoffWorker pulls every winning map segment still living on w into
// the job's DFS state prefix and flips those tasks to hand-off serving.
// Returns false when the hand-off could not complete this tick (the
// worker died mid-drain — normal crash recovery re-executes instead, or
// a transient DFS error — retried next tick).
func (jr *jobRun) handoffWorker(w *workerHandle) bool {
	var tasks []*taskState
	var names []string
	for i := range jr.maps {
		ts := &jr.maps[i]
		if !ts.done || ts.winnerW != w || ts.handoff {
			continue
		}
		tasks = append(tasks, ts)
		if ts.persisted {
			continue // segments already copied to DFS at completion
		}
		names = append(names, spillObjects(ts.winner.Parts)...)
	}
	if len(names) > 0 {
		pullErr, writeErr := jr.pullSegments(w, names)
		if pullErr != nil {
			jr.decide(slog.LevelWarn, "drain hand-off failed; treating worker as dead", "worker", w.id, "err", pullErr)
			jr.m.markDead(w)
			return false
		}
		if writeErr != nil {
			jr.decide(slog.LevelWarn, "drain hand-off DFS write failed; will retry", "worker", w.id, "err", writeErr)
			return false
		}
		jr.m.registry().Counter(CounterHandoffSegments).Add(int64(len(names)))
	}
	for _, ts := range tasks {
		ts.handoff = true
	}
	if len(tasks) > 0 {
		jr.decide(slog.LevelInfo, "drain hand-off complete", "worker", w.id,
			"maps", len(tasks), "segments", len(names))
	}
	return true
}

// pullSegments copies the named spill objects from w into the job's
// segment prefix on the DFS, counting every byte through the master. A
// failed Handoff call or a reply short of segments is the worker's
// fault (pullErr); a failed DFS write is the master's (writeErr), and
// the callers treat the two differently.
func (jr *jobRun) pullSegments(w *workerHandle, names []string) (pullErr, writeErr error) {
	reply := &HandoffReply{}
	if err := w.client.Call("Worker.Handoff", &HandoffDescriptor{JobSeq: jr.seq, Segments: names}, reply); err != nil {
		return err, nil
	}
	if len(reply.Data) != len(names) {
		return fmt.Errorf("distmr: hand-off returned %d of %d segments", len(reply.Data), len(names)), nil
	}
	for i, name := range names {
		jr.counters.Add(CounterMasterBytes, int64(len(reply.Data[i])))
		if err := jr.c.FS.WriteFile(jr.segPrefix+name, reply.Data[i]); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// persistWinner writes a completed task's winner to DFS (PersistState):
// for maps, the output segments are first pulled from the winning worker
// into the state prefix; then a manifest records the winner. The
// manifest is written last, so a crash mid-persist leaves at worst
// orphaned segment files, never a manifest pointing at missing data. A
// failed persist is logged and skipped — the task simply is not
// restorable, and a restarted master re-executes it.
func (jr *jobRun) persistWinner(ts *taskState) {
	if ts.ph == PhaseMap {
		if names := spillObjects(ts.winner.Parts); len(names) > 0 {
			pullErr, writeErr := jr.pullSegments(ts.winnerW, names)
			if pullErr != nil {
				jr.log.Warn("winner persist: segment pull failed", "phase", ts.ph.String(),
					"task", ts.task, "worker", ts.winnerW.id, "err", pullErr)
				return
			}
			if writeErr != nil {
				jr.log.Warn("winner persist: DFS write failed", "task", ts.task, "err", writeErr)
				return
			}
		}
	}
	man := taskManifest{Phase: ts.ph, Task: ts.task, Attempt: ts.attempt, Result: *ts.winner}
	name := fmt.Sprintf("%stask/%s-%05d", statePrefix(jr.job.Name), ts.ph, ts.task)
	if err := jr.c.FS.WriteFile(name, encodeManifest(&man)); err != nil {
		jr.log.Warn("winner persist: manifest write failed", "task", ts.task, "err", err)
		return
	}
	ts.persisted = true
}

// restoreState rehydrates the scheduler from DFS-persisted job state
// (PersistState): completed tasks become winners again — maps served
// from the state prefix via hand-off, reduces with their output data —
// and their failed body attempts are re-counted so "task failures"
// matches a single uninterrupted run. It also advances the job's epoch,
// offsetting every new Assign so (task, exec) submission keys from the
// previous master generation can never collide with this one's —
// aug_proc's round-end dedup then keeps exactly one complete execution
// per reduce, exactly as DESIGN.md §7 requires.
func (jr *jobRun) restoreState() {
	fs := jr.c.FS
	prefix := statePrefix(jr.job.Name)
	epoch := 0
	if data, err := fs.ReadFile(prefix + "epoch"); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil && n > 0 {
			epoch = n
		}
	}
	jr.assignBase = epoch * epochAssigns
	if err := fs.WriteFile(prefix+"epoch", []byte(strconv.Itoa(epoch+1))); err != nil {
		jr.log.Warn("state restore: epoch write failed", "err", err)
	}
	restored := 0
	for _, name := range fs.List(prefix + "task/") {
		data, err := fs.ReadFile(name)
		if err != nil {
			continue
		}
		man, err := decodeManifest(data)
		if err != nil {
			jr.log.Warn("state restore: corrupt manifest skipped", "name", name, "err", err)
			continue
		}
		var ts *taskState
		switch {
		case man.Phase == PhaseMap && man.Task >= 0 && man.Task < len(jr.maps):
			ts = &jr.maps[man.Task]
		case man.Phase == PhaseReduce && man.Task >= 0 && man.Task < len(jr.reduces):
			ts = &jr.reduces[man.Task]
		default:
			jr.log.Warn("state restore: manifest out of range skipped", "name", name)
			continue
		}
		if ts.done {
			continue
		}
		res := man.Result
		ts.done = true
		ts.winner = &res
		ts.attempt = man.Attempt
		ts.handoff = true
		ts.persisted = true
		ts.dur = time.Duration(res.DurNanos)
		if man.Phase == PhaseMap {
			jr.mapsDone++
		} else {
			jr.reducesDone++
		}
		// The previous generation's master counted these failed body
		// attempts into counters that died with it; re-count them here so
		// the job's "task failures" matches an uninterrupted run.
		if man.Attempt > 0 {
			jr.counters.Add("task failures", int64(man.Attempt))
		}
		restored++
	}
	if restored > 0 {
		jr.m.registry().Counter(CounterRestoredTasks).Add(int64(restored))
		jr.log.Info("scheduler state rehydrated from DFS", "epoch", epoch,
			"restored", restored, "maps_done", jr.mapsDone, "reduces_done", jr.reducesDone)
	}
}

// unpark re-dispatches reduces that were waiting for lost map outputs.
func (jr *jobRun) unpark() {
	for p := range jr.reduces {
		ts := &jr.reduces[p]
		if ts.parked && !ts.done {
			ts.parked = false
			jr.enqueue(ts)
		}
	}
}

// checkLiveness fails the job if work is pending but no worker has been
// alive for the configured wait.
func (jr *jobRun) checkLiveness() error {
	if jr.m.LiveWorkers() > 0 {
		jr.lastLive = time.Now()
		return nil
	}
	if len(jr.queue) > 0 && time.Since(jr.lastLive) > jr.m.cfg.WorkerWait {
		return fmt.Errorf("distmr: job %q: no live workers for %v", jr.job.Name, jr.m.cfg.WorkerWait)
	}
	return nil
}
