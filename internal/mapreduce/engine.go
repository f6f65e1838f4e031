package mapreduce

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"ffmr/internal/dfs"
	"ffmr/internal/obsv"
	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// Cluster is the simulated Hadoop cluster: a DFS plus a set of nodes each
// running a bounded number of concurrent worker slots. The paper's
// deployment is 20 slave nodes with up to 30 concurrent workers each.
type Cluster struct {
	// Nodes is the number of slave nodes.
	Nodes int
	// SlotsPerNode is the number of concurrent map/reduce workers a node
	// can run (the paper configures 15 map + 15 reduce task slots).
	SlotsPerNode int
	// FS is the distributed file system holding inputs and outputs.
	FS *dfs.FS
	// Cost models how byte counts and measured CPU translate into
	// simulated cluster time.
	Cost CostModel
	// Fault configures task-attempt retries and failure injection.
	Fault Faults
	// Tracer, if non-nil, records job/phase/task-attempt spans for every
	// job the cluster runs. A nil tracer disables tracing at no cost.
	Tracer *trace.Tracer
	// Log receives structured job/attempt events (nil: logging off).
	Log *slog.Logger

	// MemoryBudget, when > 0, bounds each map task's shuffle buffer in
	// framed bytes: a full buffer is sorted and spilled to disk, and
	// reducers stream their partition through a k-way merge over the
	// spill runs (Hadoop's external sort/merge). 0 is the same path with
	// no bound: each map task writes its buffer once, sorted, to a per-job
	// in-memory run store, and the job reports no spill statistics.
	MemoryBudget int64
	// SpillDir is where spill runs live when MemoryBudget > 0 (a fresh
	// private dir is created per job; the OS temp dir when empty).
	SpillDir string
	// SpillCompress DEFLATE-compresses spill segments.
	SpillCompress bool
	// MergeFanIn bounds how many segments one reduce-side merge pass
	// reads (Hadoop's io.sort.factor; default spill.DefaultMergeFanIn).
	MergeFanIn int

	// Distributed, when non-nil, executes jobs on an external backend (a
	// real master/worker deployment, see internal/distmr) instead of the
	// in-process simulated engine. Jobs then need a Spec so workers can
	// reconstruct their code. Nodes, SlotsPerNode and the cost model
	// still describe the modelled cluster for SimTime purposes; FS
	// remains the job input/output store, served to workers by the
	// backend.
	Distributed Backend
}

// NewCluster creates a cluster with sensible defaults applied.
func NewCluster(nodes, slotsPerNode int, fs *dfs.FS) *Cluster {
	if nodes <= 0 {
		nodes = 1
	}
	if slotsPerNode <= 0 {
		slotsPerNode = 1
	}
	return &Cluster{Nodes: nodes, SlotsPerNode: slotsPerNode, FS: fs, Cost: DefaultCostModel()}
}

// slots returns the cluster-wide worker slot count.
func (c *Cluster) slots() int { return c.Nodes * c.SlotsPerNode }

// framedSize is the on-the-wire size of a record using SequenceFile
// framing, which is what the shuffle would move. It delegates to the
// canonical codec in the spill package so shuffle accounting, spill
// files and DFS SequenceFiles agree byte-for-byte.
func framedSize(key, value []byte) int64 {
	return spill.FramedSize(key, value)
}

// Split is one map task's input: a record-aligned byte range of a file
// plus its preferred (data-local) node. Exported so distributed backends
// plan identical task inputs.
type Split struct {
	Data []byte // record-aligned slice of the file contents
	Node int    // preferred (data-local) node
}

// PlanSplits cuts an input file into record-aligned splits of roughly one
// DFS block each, the way Hadoop derives one map task per block.
func (c *Cluster) PlanSplits(name string) ([]Split, int64, error) {
	data, err := c.FS.ReadFile(name)
	if err != nil {
		return nil, 0, err
	}
	blocks, err := c.FS.Blocks(name)
	if err != nil {
		return nil, 0, err
	}
	blockSize := c.FS.Config().BlockSize
	nodeOf := func(off int) int {
		bi := off / blockSize
		if bi >= len(blocks) {
			bi = len(blocks) - 1
		}
		if bi < 0 || len(blocks[bi].Nodes) == 0 {
			return 0
		}
		return blocks[bi].Nodes[0]
	}

	var splits []Split
	r := dfs.NewRecordReader(data)
	start, off := 0, 0
	for {
		key, value, ok, err := r.Next()
		if err != nil {
			return nil, 0, fmt.Errorf("mapreduce: input %q: %w", name, err)
		}
		if !ok {
			break
		}
		off += int(framedSize(key, value))
		if off-start >= blockSize {
			splits = append(splits, Split{Data: data[start:off], Node: nodeOf(start)})
			start = off
		}
	}
	if off > start {
		splits = append(splits, Split{Data: data[start:off], Node: nodeOf(start)})
	}
	return splits, int64(len(data)), nil
}

// Run executes one MapReduce job to completion and returns its result,
// corresponding to job.waitForCompletion() in Fig. 2 of the paper.
func (c *Cluster) Run(job *Job) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if c.FS == nil {
		return nil, fmt.Errorf("mapreduce: cluster has no file system")
	}
	if c.Distributed != nil {
		return c.Distributed.RunJob(c, job)
	}
	start := time.Now()
	jobSpan := c.Tracer.Start(trace.CatJob, job.Name, job.Parent)
	defer jobSpan.End()
	log := obsv.Or(c.Log).With("job", job.Name, "round", job.Round)
	log.Debug("job start", "inputs", len(job.Inputs))

	side, err := c.loadSideFiles(job)
	if err != nil {
		return nil, err
	}

	var splits []Split
	res := &Result{}
	for _, in := range job.Inputs {
		ss, sz, err := c.PlanSplits(in)
		if err != nil {
			return nil, err
		}
		splits = append(splits, ss...)
		res.InputBytes += sz
	}
	counters := NewCounters()
	res.MapTasks = len(splits)

	// The shuffle medium: memory when the buffers are unbounded, a private
	// directory when they are bounded and so must leave process memory.
	var store spill.RunStore = spill.NewMemRunStore()
	if c.MemoryBudget > 0 {
		ds, err := spill.NewDiskRunStore(c.SpillDir)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
		}
		store = ds
	}
	defer store.Close()
	env := &TaskEnv{
		Job:         job.Name,
		Round:       job.Round,
		NewMapper:   job.NewMapper,
		NewReducer:  job.NewReducer,
		NewCombiner: job.NewCombiner,
		Side:        side,
		Service:     job.Service,
		Store:       store,
		Tracer:      c.Tracer,
		ReadFile:    c.FS.ReadFile,
	}

	mapSpan := c.Tracer.Start(trace.CatPhase, "map", jobSpan)
	mapOut, mapDur, err := c.runMapPhase(job, env, splits, counters, res, mapSpan)
	mapSpan.SetInt("tasks", int64(len(splits)))
	mapSpan.SetInt("records_out", res.MapOutputRecords)
	mapSpan.SetInt("bytes_out", res.MapOutputBytes)
	mapSpan.End()
	if err != nil {
		return nil, err
	}

	c.FS.DeletePrefix(job.OutputPrefix)

	reduceSpan := c.Tracer.Start(trace.CatPhase, "reduce", jobSpan)
	reduceDur, reduceFetch, err := c.runReducePhase(job, env, mapOut, counters, res, reduceSpan)
	reduceSpan.SetInt("tasks", int64(res.ReduceTasks))
	reduceSpan.SetInt(trace.AttrShuffleBytes, res.ShuffleBytes)
	reduceSpan.SetInt(trace.AttrOutputBytes, res.OutputBytes)
	reduceSpan.End()
	if err != nil {
		return nil, err
	}

	res.Counters = counters.Snapshot()
	c.Finish(job, res, start, jobSpan, log, splits, mapDur, reduceDur, reduceFetch)
	return res, nil
}

// Finish completes a job's Result once a backend has summed its winning
// attempts' statistics and counters into it: wall and modelled time, the
// job span's attributes, the "job done" event — and the one place that
// knows what MemoryBudget == 0 means for reporting. Every job runs the
// spill writer and the merge, so the spill sums are never zero; but
// without a budget each map task wrote its buffer exactly once, to
// memory, which is a shuffle that never spilled: the statistics are
// zeroed and nothing is published. With a budget they annotate the job
// span and feed the tracer's registry, so exported traces show the spill
// activity alongside the Table I counters.
func (c *Cluster) Finish(job *Job, res *Result, start time.Time, jobSpan *trace.Span, log *slog.Logger,
	splits []Split, mapDur, reduceDur []time.Duration, reduceFetch []int64) {

	if c.MemoryBudget <= 0 {
		res.Spills, res.SpilledBytes = 0, 0
		res.MergePasses, res.MaxMergeFanIn, res.SpillObjects = 0, 0, 0
	} else {
		jobSpan.SetInt(trace.AttrSpills, res.Spills)
		jobSpan.SetInt(trace.AttrSpilledBytes, res.SpilledBytes)
		jobSpan.SetInt(trace.AttrMergePasses, res.MergePasses)
		reg := c.Tracer.Registry()
		reg.Counter(trace.CounterSpills).Add(res.Spills)
		reg.Counter(trace.CounterSpilledBytes).Add(res.SpilledBytes)
		reg.Counter(trace.CounterMergePasses).Add(res.MergePasses)
		reg.Counter(trace.CounterSpillObjects).Add(res.SpillObjects)
		reg.Gauge(trace.GaugeMergeFanIn).Set(res.MaxMergeFanIn)
	}
	res.WallTime = time.Since(start)
	res.SimTime = c.modelSimTime(job, res, splits, mapDur, reduceDur, reduceFetch)
	failures := res.Counters["task failures"]
	jobSpan.SetInt("map_tasks", int64(res.MapTasks))
	jobSpan.SetInt("reduce_tasks", int64(res.ReduceTasks))
	jobSpan.SetInt(trace.AttrMapOutRecords, res.MapOutputRecords)
	jobSpan.SetInt(trace.AttrShuffleBytes, res.ShuffleBytes)
	jobSpan.SetInt(trace.AttrOutputBytes, res.OutputBytes)
	jobSpan.SetInt("task_failures", failures)
	jobSpan.SetInt(trace.AttrSimTimeUS, res.SimTime.Microseconds())
	log.Info("job done",
		"map_tasks", res.MapTasks, "reduce_tasks", res.ReduceTasks,
		"shuffle_bytes", res.ShuffleBytes, "output_bytes", res.OutputBytes,
		"task_failures", failures,
		"wall", res.WallTime, "sim", res.SimTime)
}

func (c *Cluster) loadSideFiles(job *Job) (map[string][]byte, error) {
	if len(job.SideFiles) == 0 {
		return nil, nil
	}
	side := make(map[string][]byte, len(job.SideFiles))
	for _, name := range job.SideFiles {
		data, err := c.FS.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: side file: %w", err)
		}
		side[name] = data
	}
	return side, nil
}

// runTasks runs n task bodies on the cluster's worker slots. It returns
// how long each ran once it held a slot, and the first error any of them
// reported.
func (c *Cluster) runTasks(n int, task func(i int) error) ([]time.Duration, error) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.slots())
	errs := make(chan error, n)
	durs := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			if err := task(i); err != nil {
				errs <- err
			}
			durs[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()
	close(errs)
	return durs, <-errs
}

// runMapPhase schedules one ExecMap per split, with retries, and sums
// the winning attempts' statistics into res. It returns each task's
// result and measured duration.
func (c *Cluster) runMapPhase(job *Job, env *TaskEnv, splits []Split,
	counters *Counters, res *Result, phase *trace.Span) ([]*MapResult, []time.Duration, error) {

	outs := make([]*MapResult, len(splits))
	taskDur, err := c.runTasks(len(splits), func(ti int) error {
		node := splits[ti].Node
		return c.runAttempts(job, "map", ti, node, counters, phase, func(att *trace.Span, attempt int) (err error) {
			outs[ti], err = ExecMap(env, &MapTask{
				Task:            ti,
				Attempt:         attempt,
				Exec:            attempt,
				Node:            node,
				Split:           splits[ti].Data,
				Partitions:      job.NumReducers,
				Budget:          c.MemoryBudget,
				Compress:        c.SpillCompress,
				Prefix:          fmt.Sprintf("map-%05d/a%d/", ti, attempt),
				Seed:            c.Fault.Seed,
				DiskFailureRate: c.Fault.DiskFailureRate,
			}, counters, att)
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range outs {
		res.AddMapWinner(r)
	}
	return outs, taskDur, nil
}

// injectHash returns a deterministic pseudo-random value in [0,1) for a
// task attempt, used for failure injection and the straggler model.
func injectHash(seed int64, job, phase string, task, attempt int) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h ^= uint64(b); h *= prime64 }
	for i := 0; i < 8; i++ {
		mix(byte(seed >> (8 * i)))
	}
	for i := 0; i < len(job); i++ {
		mix(job[i])
	}
	for i := 0; i < len(phase); i++ {
		mix(phase[i])
	}
	for i := 0; i < 4; i++ {
		mix(byte(task >> (8 * i)))
		mix(byte(attempt >> (8 * i)))
	}
	return float64(h>>11) / float64(1<<53)
}

// InjectHash is injectHash for a distributed backend, whose workers draw
// WorkerCrashRate decisions from the same sequence regardless of which
// worker holds the lease.
func InjectHash(seed int64, job, phase string, task, attempt int) float64 {
	return injectHash(seed, job, phase, task, attempt)
}

// runAttempts executes a task body with Hadoop-style attempt semantics:
// on an injected worker failure or a body error, the attempt's partial
// output is discarded and the task is retried, up to Fault.MaxAttempts
// times. The "task failures" counter records discarded attempts. Each
// attempt is recorded as its own task span (lane = simulated node), so
// retries are visible in the exported trace.
func (c *Cluster) runAttempts(job *Job, phase string, task, node int, counters *Counters,
	parent *trace.Span, body func(att *trace.Span, attempt int) error) error {

	maxAttempts := c.Fault.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sp := c.Tracer.Start(trace.CatTask, fmt.Sprintf("%s-%05d", phase, task), parent)
		sp.SetInt("task", int64(task))
		sp.SetInt("attempt", int64(attempt))
		sp.SetInt("node", int64(node))
		sp.SetTID(int64(node) + 2)
		if c.Fault.FailureRate > 0 &&
			injectHash(c.Fault.Seed, job.Name, phase, task, attempt) < c.Fault.FailureRate {
			counters.Add("task failures", 1)
			lastErr = fmt.Errorf("mapreduce: %s %s task %d attempt %d: injected worker failure",
				job.Name, phase, task, attempt)
			sp.SetStr("error", "injected worker failure")
			sp.End()
			obsv.Or(c.Log).Warn("task attempt failed",
				"job", job.Name, "phase", phase, "task", task, "exec", attempt,
				"err", "injected worker failure")
			continue
		}
		if err := body(sp, attempt); err != nil {
			counters.Add("task failures", 1)
			lastErr = err
			sp.SetStr("error", err.Error())
			sp.End()
			obsv.Or(c.Log).Warn("task attempt failed",
				"job", job.Name, "phase", phase, "task", task, "exec", attempt, "err", err)
			continue
		}
		sp.End()
		return nil
	}
	return fmt.Errorf("mapreduce: %s %s task %d failed after %d attempts: %w",
		job.Name, phase, task, maxAttempts, lastErr)
}

// partition hashes a key to a reduce partition (Hadoop's default
// HashPartitioner behaviour, with FNV-1a instead of Java hashCode).
func partition(key []byte, numReducers int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range key {
		h ^= uint32(b)
		h *= prime32
	}
	return int(h % uint32(numReducers))
}

// Partition is partition for a distributed backend and the benchmark.
func Partition(key []byte, numReducers int) int { return partition(key, numReducers) }

// PartName returns the DFS name of output partition p under prefix,
// matching Hadoop's part-NNNNN naming.
func PartName(prefix string, p int) string { return fmt.Sprintf("%spart-%05d", prefix, p) }

// runReducePhase schedules one ExecReduce per partition, with retries,
// writes each winning attempt's output partition and sums the winners'
// statistics into res. A map-only job has one output partition per map
// task instead, holding that task's single segment list; writing it is
// the tail of the map task rather than a task of its own, so it is not
// retried, not fault-injected, and counts no reduce task or shuffle byte.
// The returned durations and fetch sizes feed modelSimTime.
func (c *Cluster) runReducePhase(job *Job, env *TaskEnv, mapOut []*MapResult,
	counters *Counters, res *Result, phase *trace.Span) ([]time.Duration, []int64, error) {

	n := job.NumReducers
	segments := func(p int) []spill.Segment {
		var segs []spill.Segment
		for _, m := range mapOut {
			segs = append(segs, m.Out.Parts[p]...)
		}
		return segs
	}
	if job.NewReducer == nil {
		n = len(mapOut)
		segments = func(p int) []spill.Segment { return mapOut[p].Out.Parts[0] }
	} else {
		res.ReduceTasks = n
	}
	schimmyBase := ""
	if job.Schimmy {
		schimmyBase = job.SchimmyBase
	}

	outs := make([]*ReduceResult, n)
	taskDur, err := c.runTasks(n, func(p int) error {
		node := p % c.Nodes
		segs := segments(p)
		body := func(att *trace.Span, attempt int) (err error) {
			outs[p], err = ExecReduce(env, &ReduceTask{
				Task:        p,
				Exec:        attempt,
				Node:        node,
				Segments:    segs,
				FanIn:       c.MergeFanIn,
				Compress:    c.SpillCompress,
				TmpPrefix:   fmt.Sprintf("reduce-%05d/a%d/", p, attempt),
				SchimmyBase: schimmyBase,
			}, counters, att)
			if err != nil {
				return err
			}
			return c.FS.WriteFile(PartName(job.OutputPrefix, p), outs[p].Output)
		}
		if job.NewReducer == nil {
			return body(nil, 0)
		}
		return c.runAttempts(job, "reduce", p, node, counters, phase, body)
	})
	if err != nil {
		return nil, nil, err
	}

	fetch := make([]int64, n)
	for p, r := range outs {
		res.AddReduceWinner(r, job.NewReducer != nil)
		if job.NewReducer != nil {
			fetch[p] = r.Fetch
		}
	}
	return taskDur, fetch, nil
}

// modelSimTime applies the cost model: map and reduce task costs are packed
// onto the cluster's worker slots (greedy longest-queue-avoidance, which
// is how Hadoop's scheduler behaves with uniform tasks), and phase
// makespans plus fixed overhead give the simulated round time. The
// straggler model multiplies each task's cost by a deterministic draw.
func (c *Cluster) modelSimTime(job *Job, res *Result, splits []Split, mapDur, reduceDur []time.Duration, reduceFetch []int64) time.Duration {
	cm := c.Cost
	straggle := func(phase string, task int) float64 {
		if cm.StragglerProb <= 0 || cm.StragglerFactor <= 1 {
			return 1
		}
		if injectHash(c.Fault.Seed+1, job.Name, phase, task, 0) < cm.StragglerProb {
			return cm.StragglerFactor
		}
		return 1
	}

	var mapCosts []time.Duration
	for i := range splits {
		cost := cm.TaskOverhead +
			xfer(int64(len(splits[i].Data)), cm.DiskBytesPerSec) +
			time.Duration(float64(mapDur[i])*cm.CPUFactor)
		mapCosts = append(mapCosts, time.Duration(float64(cost)*straggle("map", i)))
	}
	// Map output spill is charged once against aggregate disk bandwidth.
	// On the out-of-core path the spilled bytes (which include re-written
	// combiner output) are what actually hit disk.
	spillBytes := res.MapOutputBytes
	if res.SpilledBytes > 0 {
		spillBytes = res.SpilledBytes
	}
	spillCost := xfer(spillBytes/int64(c.Nodes), cm.DiskBytesPerSec)

	// A map-only job has no reduce tasks to launch: its "reduce" costs are
	// the map tasks' own output writes, so no per-task overhead applies.
	reduceOverhead := cm.TaskOverhead
	if job.NewReducer == nil {
		reduceOverhead = 0
	}
	var reduceCosts []time.Duration
	for i := range reduceDur {
		var f int64
		if i < len(reduceFetch) {
			f = reduceFetch[i]
		}
		cost := reduceOverhead +
			xfer(f, cm.NetBytesPerSec) +
			time.Duration(float64(reduceDur[i])*cm.CPUFactor)
		reduceCosts = append(reduceCosts, time.Duration(float64(cost)*straggle("reduce", i)))
	}
	return cm.RoundOverhead + makespan(mapCosts, c.slots()) + spillCost +
		makespan(reduceCosts, c.slots()) + c.DFSWriteTime(res.OutputBytes)
}

// DFSWriteTime is the cost model's charge for writing bytes to the DFS,
// spread evenly over the nodes' disks: the output term of every job's
// SimTime, and the whole charge for files the driver writes itself.
func (c *Cluster) DFSWriteTime(bytes int64) time.Duration {
	return xfer(bytes/int64(c.Nodes), c.Cost.DiskBytesPerSec)
}

// xfer is the time to move bytes at bytesPerSec (0 when either is not
// positive).
func xfer(bytes int64, bytesPerSec float64) time.Duration {
	if bytesPerSec <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bytesPerSec * float64(time.Second))
}

// makespan packs task costs onto n slots greedily (each task goes to the
// least-loaded slot) and returns the maximum slot load.
func makespan(costs []time.Duration, n int) time.Duration {
	if len(costs) == 0 || n <= 0 {
		return 0
	}
	loads := make([]time.Duration, n)
	for _, c := range costs {
		mi := 0
		for i := 1; i < n; i++ {
			if loads[i] < loads[mi] {
				mi = i
			}
		}
		loads[mi] += c
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
