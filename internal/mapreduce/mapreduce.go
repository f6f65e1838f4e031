// Package mapreduce implements the multi-round MapReduce runtime the FFMR
// algorithms run on, emulating the Hadoop deployment used in the paper: a
// master that schedules map and reduce tasks over a cluster of slave
// nodes with a bounded number of worker slots, input splits taken from a
// distributed file system, hash partitioning, a sorted shuffle,
// Hadoop-style named counters, and per-job I/O statistics (map output
// records, shuffle bytes, largest record) that the paper's evaluation
// reports directly (Table I, Fig. 7).
//
// There is one map task body and one reduce task body, ExecMap and
// ExecReduce (exec.go), and one shuffle, built on package spill: a map
// task sorts its output into segments — one object per spill in a
// spill.RunStore, a segment per partition — and a reduce task consumes
// its partition through a k-way merge — Hadoop's external sort, scaled
// down. Cluster.MemoryBudget bounds the map-side buffer and
// puts the segments on disk; without one the buffer is written once and
// the segments stay in memory. Both must produce identical counters; the
// spill differential tests enforce that.
//
// Record lifetime: what a task body hands to user code is valid only
// during that call. A reduce task walks its groups with one Values and one
// backing slice (reduceGroups), so a Reducer must not keep the Values, a
// slice it yielded, the key or the master record past its return, and
// TaskContext.Emit copies what it is given, so mappers and reducers may
// encode every record into one reused buffer. That contract is what lets
// FF4 run the whole vertex-record path — decode, merge, candidate
// generation, encode, emit — without allocating per record.
//
// Execution has two backends behind the same Cluster API, both calling
// those two bodies: the simulated engine runs tasks on goroutines
// in-process, while Cluster.Distributed hands whole jobs to a distmr
// master that leases tasks to worker processes over TCP (see
// internal/distmr). Tasks execute concurrently on real goroutines, so
// computation cost is measured; data movement cost is modelled by a
// configurable CostModel so that a simulated per-round runtime comparable
// to the paper's wall-clock-per-round can be reported regardless of host
// speed.
package mapreduce

import (
	"fmt"
	"time"

	"ffmr/internal/trace"
)

// TaskContext is handed to Mapper and Reducer implementations. It carries
// the per-round environment: the round number, the emit function, named
// counters, broadcast side files (the paper's AugmentedEdges list is one),
// and an opaque service handle (the FF2+ aug_proc client).
//
// A TaskContext is owned by a single task and must not be retained after
// the Map/Reduce call returns.
type TaskContext struct {
	round    int
	task     int
	exec     int
	node     int
	counters *Counters
	side     map[string][]byte
	service  any
	emit     func(key, value []byte)
	// tallies is what this attempt's Inc calls added, per name, until
	// flush publishes it to counters, so that the record loop takes
	// neither the registry's lock nor a cache line the job's other tasks
	// write.
	tallies []tally
}

type tally struct {
	name string
	n    int64
}

// Round returns the driver-assigned round number of the running job.
func (c *TaskContext) Round() int { return c.round }

// Task returns the task index within the current phase.
func (c *TaskContext) Task() int { return c.task }

// Exec identifies this physical execution of the task: the attempt
// number on the simulated engine, the assignment number on a
// distributed backend. Stateful job services use (Task, Exec) to
// recognize — and discard — submissions duplicated by task re-execution
// (retries, reassignments after worker deaths).
func (c *TaskContext) Exec() int { return c.exec }

// Node returns the simulated cluster node the task runs on.
func (c *TaskContext) Node() int { return c.node }

// Emit outputs an intermediate record (from a mapper) or a final record
// (from a reducer). Key and value are copied; callers may reuse buffers.
func (c *TaskContext) Emit(key, value []byte) { c.emit(key, value) }

// Inc adds delta to the named counter (Hadoop's custom counters). The job's
// counters see it when the attempt ends, whether or not it succeeds.
func (c *TaskContext) Inc(name string, delta int64) {
	for i := range c.tallies {
		if c.tallies[i].name == name {
			c.tallies[i].n += delta
			return
		}
	}
	c.tallies = append(c.tallies, tally{name, delta})
}

// flush adds the attempt's tallies to the job's counters. ExecMap and
// ExecReduce call it once the attempt's last Map, Reduce or Close call has
// returned.
func (c *TaskContext) flush() {
	for _, t := range c.tallies {
		c.counters.Add(t.name, t.n)
	}
	c.tallies = c.tallies[:0]
}

// SideFile returns the contents of a broadcast side file loaded for this
// job, or nil if the job has no such file. Side data is shared across all
// tasks and must be treated as read-only.
func (c *TaskContext) SideFile(name string) []byte { return c.side[name] }

// Service returns the opaque service handle configured on the job (used
// by FF2+ reducers to reach the external aug_proc accumulator).
func (c *TaskContext) Service() any { return c.service }

// Mapper processes one input record at a time. Implementations are
// created per map task via Job.NewMapper, so per-task state (e.g. FF4's
// preallocated buffers) is safe without synchronization. key and value
// alias the task's split, which is a read-only view of a stored DFS file:
// a mapper must not modify them.
type Mapper interface {
	Map(ctx *TaskContext, key, value []byte) error
}

// Values iterates the shuffled values of one reduce group in
// deterministic (sorted) order. The engine reuses one Values for every
// group of a reduce task: it, and every slice it yields, is valid only
// until the Reduce call it was passed to returns.
type Values struct {
	vals [][]byte
	pos  int
}

// Next returns the next value in the group, or nil when exhausted. The
// returned slice is owned by the engine: it aliases a stored shuffle
// object or a window on one that the merge reuses once the group is
// done. Treat it as read-only and copy what must outlive the Reduce call.
func (v *Values) Next() []byte {
	if v.pos >= len(v.vals) {
		return nil
	}
	val := v.vals[v.pos]
	v.pos++
	return val
}

// Len returns the total number of values in the group.
func (v *Values) Len() int { return len(v.vals) }

// Reducer processes one key group at a time. master is the
// partition-aligned base record for the key when the job runs with the
// schimmy pattern (nil otherwise, and nil for keys with no base record).
// key, master, values and everything values yields belong to the engine
// and are valid only during the call: the next group overwrites them. A
// reducer that keeps any of it across calls copies it first. Reducers are
// created per reduce task via Job.NewReducer, so state a reducer owns
// lives for one task attempt unless Close hands it on (TaskCloser).
type Reducer interface {
	Reduce(ctx *TaskContext, key []byte, master []byte, values *Values) error
}

// TaskCloser is Hadoop's cleanup(): a Mapper or Reducer that also
// implements it has Close called once per task attempt, after the last
// record's Map or the last group's Reduce has returned and before the
// attempt's result exists, with the TaskContext every call of the attempt
// saw. A mapper is closed before its spill writer, so it may still emit.
// It is how a task hands over what it collected across records (FF2+
// reducers send a task's candidate augmenting paths to aug_proc in one
// batch) and gives back what it borrowed (FF4+ return their scratch to a
// process-wide pool). An attempt whose input, merge, Map or Reduce failed
// is never closed, and a Close error fails the attempt.
type TaskCloser interface {
	Close(ctx *TaskContext) error
}

// Combiner performs map-side pre-aggregation: after a map task finishes,
// its output records are grouped by key per partition and each group is
// replaced by the combiner's output, reducing shuffle volume at the cost
// of extra map-side CPU (Hadoop's combiner). The paper evaluated
// combiners for FFMR and found them counterproductive ("we do not use
// any combiners as we found worse performance", Section IV-B footnote);
// the engine supports them so that finding can be reproduced.
type Combiner interface {
	// Combine receives one key's values from a single map task and
	// returns the replacement values.
	Combine(key []byte, values [][]byte) ([][]byte, error)
}

// CombinerFunc adapts a function to the Combiner interface.
type CombinerFunc func(key []byte, values [][]byte) ([][]byte, error)

// Combine implements Combiner.
func (f CombinerFunc) Combine(key []byte, values [][]byte) ([][]byte, error) {
	return f(key, values)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(ctx *TaskContext, key, value []byte) error

// Map implements Mapper.
func (f MapperFunc) Map(ctx *TaskContext, key, value []byte) error { return f(ctx, key, value) }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(ctx *TaskContext, key, master []byte, values *Values) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(ctx *TaskContext, key, master []byte, values *Values) error {
	return f(ctx, key, master, values)
}

// Job describes one MapReduce round: inputs, output location, the map and
// reduce functions, and engine options. It corresponds to the job object
// configured in Fig. 2 of the paper.
type Job struct {
	// Name labels the job in errors and traces.
	Name string
	// Round is the multi-round driver's round number, exposed to tasks.
	Round int
	// Inputs are DFS file names; each is split into map tasks at record
	// boundaries, one task per (approximately) one DFS block.
	Inputs []string
	// OutputPrefix is where reducer output partitions are written, as
	// OutputPrefix + "part-NNNNN". Existing files under the prefix are
	// removed first, as Hadoop requires a fresh output directory.
	OutputPrefix string
	// NumReducers is the number of reduce tasks (and output partitions).
	NumReducers int
	// NewMapper and NewReducer create one instance per task.
	NewMapper func() Mapper
	// NewReducer may be nil for map-only jobs; mapper emissions are then
	// written directly, one output partition per map task.
	NewReducer func() Reducer
	// NewCombiner, if non-nil, pre-aggregates each map task's output per
	// key before the shuffle.
	NewCombiner func() Combiner
	// SideFiles are DFS files loaded once and broadcast read-only to all
	// tasks (the paper's AugmentedEdges list is distributed this way).
	SideFiles []string
	// Schimmy enables the Lin & Schatz schimmy pattern: reducers
	// merge-join the shuffled stream against the partition-aligned base
	// files SchimmyBase + "part-NNNNN" instead of receiving master
	// records through the shuffle.
	Schimmy bool
	// SchimmyBase is the output prefix of the previous round, which must
	// have been produced with the same NumReducers and partitioner.
	SchimmyBase string
	// Service is an opaque handle exposed to tasks via TaskContext.
	// Service handles are process-local (function values, live clients);
	// a distributed backend ignores them and reconstructs the equivalent
	// handle on each worker from Spec.Params.
	Service any
	// Spec describes the job's code to a distributed backend: a kind
	// name registered with the backend's worker-side registry plus the
	// opaque parameters from which a worker reconstructs the job's
	// mapper, reducer, combiner and service handle. A job with a nil
	// Spec can only run on the built-in simulated engine.
	Spec *JobSpec
	// Parent, if non-nil, is the trace span under which the engine
	// records this job's span (the driver passes its round span).
	Parent *trace.Span
}

// JobSpec is the serializable description of a job's code, the unit a
// distributed backend ships to workers (Hadoop ships a job jar plus a
// serialized configuration; here the worker binary already links the
// code, so the spec is a registered kind name plus parameters).
type JobSpec struct {
	// Kind names a worker-side factory registered for this job type.
	Kind string
	// Params is the kind-specific opaque configuration blob.
	Params []byte
}

// Backend executes jobs on an alternative runtime. The built-in engine
// runs when Cluster.Distributed is nil.
type Backend interface {
	// RunJob executes one validated job to completion. It must produce
	// the same output files and (for deterministic jobs) the same
	// Result counters as the simulated engine.
	RunJob(c *Cluster, job *Job) (*Result, error)
}

func (j *Job) validate() error {
	if j.NewMapper == nil {
		return fmt.Errorf("mapreduce: job %q has no mapper", j.Name)
	}
	if len(j.Inputs) == 0 {
		return fmt.Errorf("mapreduce: job %q has no inputs", j.Name)
	}
	if j.OutputPrefix == "" {
		return fmt.Errorf("mapreduce: job %q has no output prefix", j.Name)
	}
	if j.NumReducers <= 0 && j.NewReducer != nil {
		return fmt.Errorf("mapreduce: job %q has %d reducers", j.Name, j.NumReducers)
	}
	if j.Schimmy && j.SchimmyBase == "" {
		return fmt.Errorf("mapreduce: job %q enables schimmy without a base", j.Name)
	}
	if j.Schimmy && j.NewReducer == nil {
		return fmt.Errorf("mapreduce: job %q enables schimmy without a reducer", j.Name)
	}
	return nil
}

// Result carries the statistics of one executed job. The fields mirror
// the Hadoop counters the paper reports: Map Out (intermediate records),
// Shuffle bytes, and the per-round runtime.
type Result struct {
	// Counters holds the user counters incremented via TaskContext.Inc.
	Counters map[string]int64

	MapTasks    int
	ReduceTasks int

	MapInputRecords  int64
	MapOutputRecords int64
	MapOutputBytes   int64

	// ShuffleBytes is every byte fetched by reducers from map outputs
	// (Hadoop's REDUCE_SHUFFLE_BYTES); InterNodeShuffleBytes is the
	// subset that crossed simulated node boundaries.
	ShuffleBytes          int64
	InterNodeShuffleBytes int64

	// MaxRecordBytes is the largest single intermediate record.
	// MaxGroupBytes is the largest reduce group (one key's master plus
	// all shuffled values) — the paper's "size of the biggest record":
	// in FF1 the group with key = t carries every candidate augmenting
	// path and dominates reducer memory, which is what FF2's aug_proc
	// eliminates.
	MaxRecordBytes int64
	MaxGroupBytes  int64

	ReduceOutputRecords int64
	OutputBytes         int64
	InputBytes          int64

	// Out-of-core shuffle statistics, all zero without a memory budget
	// (Cluster.MemoryBudget == 0: every map task then writes its buffer
	// once, to memory, and Cluster.Finish reports that as no spill at
	// all). Spills counts map-side sort+write cycles; SpilledBytes is the
	// framed (uncompressed) bytes they wrote;
	// MergePasses counts reduce-side merge passes (including each reduce
	// task's final streaming pass); MaxMergeFanIn is the largest number
	// of segments any single merge pass read; SpillObjects counts the
	// store objects (files, on disk) all of that created: one per spill
	// and one per merge pass that is not a final one.
	Spills        int64
	SpilledBytes  int64
	MergePasses   int64
	MaxMergeFanIn int64
	SpillObjects  int64

	// WallTime is the measured host execution time of the job;
	// SimTime is the modelled cluster time (see CostModel).
	WallTime time.Duration
	SimTime  time.Duration
}

// AddMapWinner folds one map task's winning attempt into the job's
// statistics. Both backends sum their winners here, in task order, so a
// job's Result does not depend on where its tasks ran.
func (r *Result) AddMapWinner(w *MapResult) {
	r.MapInputRecords += w.InRecs
	r.MapOutputRecords += w.OutRecs
	r.MapOutputBytes += w.Out.RawBytes
	r.MaxRecordBytes = max(r.MaxRecordBytes, w.Out.MaxFrame)
	r.Spills += w.Out.Spills
	r.SpillObjects += w.Out.Spills
	// Every framed byte of map output reaches the reducers through a
	// spill segment, so the two totals are one number.
	r.SpilledBytes += w.Out.RawBytes
}

// AddReduceWinner is AddMapWinner for a reduce task. shuffled is false
// for a map-only job, whose reduce tasks only concatenate map output:
// what they read is not a shuffle.
func (r *Result) AddReduceWinner(w *ReduceResult, shuffled bool) {
	r.ReduceOutputRecords += w.OutRecords
	r.OutputBytes += int64(len(w.Output))
	r.MergePasses += w.MergePasses
	r.SpillObjects += max(w.MergePasses-1, 0)
	r.MaxMergeFanIn = max(r.MaxMergeFanIn, w.MaxMergeFanIn)
	r.MaxGroupBytes = max(r.MaxGroupBytes, w.MaxGroup)
	if shuffled {
		r.ShuffleBytes += w.Fetch
		r.InterNodeShuffleBytes += w.Inter
	}
}

// Counter returns a user counter by name (0 when absent), mirroring
// job.getCounters().getValue() in Fig. 2 of the paper.
func (r *Result) Counter(name string) int64 { return r.Counters[name] }

// Counters is the job-scoped set of named counters shared by a job's
// tasks (Hadoop's custom counters). It is a thin veneer over a
// trace.Registry, so the same typed counter objects back both the
// Hadoop-style API the tasks use and the trace/metrics exporters.
type Counters struct {
	reg *trace.Registry
}

// NewCounters creates an empty counter set backed by a fresh registry.
func NewCounters() *Counters { return NewCountersIn(trace.NewRegistry()) }

// NewCountersIn creates a counter set backed by an existing registry,
// letting a caller aggregate several jobs' counters in one place.
func NewCountersIn(reg *trace.Registry) *Counters {
	if reg == nil {
		reg = trace.NewRegistry()
	}
	return &Counters{reg: reg}
}

// Add increments a named counter.
func (c *Counters) Add(name string, delta int64) { c.reg.Counter(name).Add(delta) }

// Registry exposes the backing typed registry.
func (c *Counters) Registry() *trace.Registry { return c.reg }

// Snapshot copies all counters into a plain map.
func (c *Counters) Snapshot() map[string]int64 { return c.reg.CounterSnapshot() }

// CostModel converts measured work and byte counts into a simulated
// cluster runtime. Defaults approximate the paper's cluster: commodity
// nodes with SATA disks (~100 MB/s), 1 GbE (~110 MB/s full duplex), and
// tens of seconds of per-job framework overhead (the paper observes ~15
// minutes minimum per round at their scale; scaled-down graphs here keep
// overhead proportionally smaller by default).
type CostModel struct {
	// RoundOverhead is fixed per-job scheduling/setup cost.
	RoundOverhead time.Duration
	// TaskOverhead is fixed per-task launch cost.
	TaskOverhead time.Duration
	// DiskBytesPerSec is per-node disk bandwidth for DFS reads/writes.
	DiskBytesPerSec float64
	// NetBytesPerSec is per-node network bandwidth for shuffling.
	NetBytesPerSec float64
	// CPUFactor scales measured task CPU time into simulated time
	// (1.0 = host speed).
	CPUFactor float64
	// StragglerProb is the probability that a task attempt runs slow (a
	// common cluster pathology); StragglerFactor is the slowdown
	// multiplier applied to a straggling attempt's simulated cost.
	StragglerProb   float64
	StragglerFactor float64
}

// DefaultCostModel returns the Hadoop-like cost model described above.
func DefaultCostModel() CostModel {
	return CostModel{
		RoundOverhead:   10 * time.Second,
		TaskOverhead:    100 * time.Millisecond,
		DiskBytesPerSec: 100e6,
		NetBytesPerSec:  110e6,
		CPUFactor:       1.0,
		StragglerProb:   0.05,
		StragglerFactor: 3.0,
	}
}

// Faults configures failure injection and retry behaviour, emulating
// Hadoop's task-attempt fault tolerance.
type Faults struct {
	// MaxAttempts is the number of attempts per task before the job
	// fails (Hadoop's mapreduce.map.maxattempts, default 4 there;
	// default 1 here so tests see errors immediately unless they opt in).
	MaxAttempts int
	// FailureRate injects a probability that any task attempt dies
	// before doing work (emulating worker crashes). Injection is
	// deterministic in Seed, the job name, the task and the attempt.
	FailureRate float64
	// DiskFailureRate injects a probability that any single spill write
	// fails mid-task (emulating a local-disk error on the tasktracker).
	// Only drawn under a memory budget (Cluster.MemoryBudget > 0), when
	// spill writes go to disk (ExecMap holds the rule); the failed
	// attempt's partial spill state is discarded and the task retried.
	DiskFailureRate float64
	// WorkerCrashRate injects a probability that the worker holding a
	// task lease dies at that task's start: it stops heartbeating,
	// refuses further work, and its locally stored map outputs become
	// unreachable, so the master must reassign the leased task to
	// another worker and re-execute any map tasks whose outputs the dead
	// worker held. Only meaningful on a distributed backend
	// (Cluster.Distributed != nil); the simulated engine has no workers
	// to kill and ignores it. Injection is deterministic in Seed, the
	// job name, the task and the attempt.
	WorkerCrashRate float64
	// Seed drives the injection hash.
	Seed int64
}

// ZeroCostModel returns a model with no framework overhead and infinite
// bandwidth; SimTime then reflects only measured computation. Used by
// ablation benchmarks to separate algorithmic work from MR overhead.
func ZeroCostModel() CostModel {
	return CostModel{CPUFactor: 1.0}
}
