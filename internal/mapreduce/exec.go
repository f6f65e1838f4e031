package mapreduce

import (
	"bytes"
	"fmt"
	"sync"

	"ffmr/internal/dfs"
	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// defaultMapBudget is the shuffle buffer bound of a map task that runs
// without a memory budget: large enough that the buffer is written out
// exactly once, at close, as one sorted segment per partition. The
// in-memory shuffle is this case of the spill writer over a MemRunStore.
const defaultMapBudget = 1 << 30

// TaskEnv is what every task attempt of one job shares: the job's code,
// its broadcast data and the places a task reads from and writes to.
type TaskEnv struct {
	// Job and Round identify the job in errors, fault-injection draws and
	// TaskContext.Round.
	Job   string
	Round int
	// NewMapper, NewReducer and NewCombiner create one instance per task
	// attempt. A nil NewReducer is a map-only job: a map task then writes
	// a single partition, uncombined, and the reduce body copies it out.
	NewMapper   func() Mapper
	NewReducer  func() Reducer
	NewCombiner func() Combiner
	// Side and Service are exposed through TaskContext.
	Side    map[string][]byte
	Service any
	// Store is the shuffle medium: map attempts write their sorted
	// segments to it and reduce attempts merge segments present in it.
	Store spill.RunStore
	// Tracer records spill and merge spans under the attempt's span.
	Tracer *trace.Tracer
}

// context builds the TaskContext handed to one attempt's mapper or reducer.
func (env *TaskEnv) context(task, exec, node int, counters *Counters, emit func(key, value []byte)) *TaskContext {
	return &TaskContext{
		round: env.Round, task: task, exec: exec, node: node,
		counters: counters, side: env.Side, service: env.Service, emit: emit,
	}
}

// MapTask describes one map task attempt.
type MapTask struct {
	Task int
	// Attempt is the body-attempt number, a coordinate of the disk-fault
	// draw; Exec is what TaskContext.Exec reports (see there).
	Attempt int
	Exec    int
	Node    int
	// Split is the task's record-aligned input.
	Split []byte
	// Partitions is the job's reduce partition count.
	Partitions int
	// Budget bounds the shuffle buffer in framed bytes. Zero or less is
	// the unbounded shuffle: the buffer is written once, at close, and
	// since that single write stands for memory rather than a local disk
	// no disk failure is drawn for it.
	Budget   int64
	Compress bool
	// Prefix namespaces the attempt's segments in the store; a failed
	// attempt leaves nothing under it.
	Prefix string
	// Seed and DiskFailureRate drive the injected spill-write failures.
	Seed            int64
	DiskFailureRate float64
}

// MapResult is what a successful map attempt produced.
type MapResult struct {
	InRecs int64
	// OutRecs counts emitted records, before any combiner ran.
	OutRecs int64
	// Out lists the attempt's segments per partition with their sizes.
	Out *spill.Output
}

// ExecMap runs one map attempt: every record of the split goes through
// the mapper, a mapper that is a TaskCloser is closed after the last
// record, emissions are partitioned into a spill writer, and a failure of
// the mapper, its Close, the input or a spill write discards whatever the
// attempt had already put in the store. User counters are added to
// counters, which the caller owns; att is the attempt's span (may be nil).
func ExecMap(env *TaskEnv, t *MapTask, counters *Counters, att *trace.Span) (*MapResult, error) {
	parts, newCombiner := t.Partitions, env.NewCombiner
	if env.NewReducer == nil {
		parts, newCombiner = 1, nil
	}
	cfg := spill.Config{
		Partitions:   parts,
		MemoryBudget: t.Budget,
		Store:        env.Store,
		NamePrefix:   t.Prefix,
		Node:         t.Node,
		Compress:     t.Compress,
		Tracer:       env.Tracer,
		Parent:       att,
	}
	if t.Budget <= 0 {
		cfg.MemoryBudget = defaultMapBudget
	} else if t.DiskFailureRate > 0 {
		cfg.FailSpill = func(idx int) error {
			// Hash on a per-(attempt, spill) coordinate so a retry re-draws
			// every spill independently.
			if injectHash(t.Seed, env.Job, "spill", t.Task, t.Attempt<<16|idx) < t.DiskFailureRate {
				return fmt.Errorf("injected disk write failure")
			}
			return nil
		}
	}
	if newCombiner != nil {
		cfg.Combine = newCombiner().Combine
		cfg.OnCombine = func(in, out int64) {
			counters.Add("combine input records", in)
			counters.Add("combine output records", out)
		}
	}
	w, err := spill.NewWriter(cfg)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s map task %d: %w", env.Job, t.Task, err)
	}

	res := &MapResult{}
	// The TaskContext emit API has no error return, so spill errors latch
	// into emitErr and end the record loop.
	var emitErr error
	ctx := env.context(t.Task, t.Exec, t.Node, counters, func(key, value []byte) {
		if emitErr != nil {
			return
		}
		if emitErr = w.Add(partition(key, parts), key, value); emitErr == nil {
			res.OutRecs++
		}
	})
	defer ctx.flush()
	mapper := env.NewMapper()
	r := dfs.NewRecordReader(t.Split)
	for emitErr == nil {
		key, value, ok, err := r.Next()
		if err != nil {
			emitErr = err
			break
		}
		if !ok {
			break
		}
		res.InRecs++
		if err := mapper.Map(ctx, key, value); err != nil {
			emitErr = err
		}
	}
	if c, ok := mapper.(TaskCloser); ok && emitErr == nil {
		emitErr = c.Close(ctx)
	}
	if emitErr == nil {
		res.Out, emitErr = w.Close()
	}
	if emitErr != nil {
		w.Abort()
		return nil, fmt.Errorf("mapreduce: %s map task %d: %w", env.Job, t.Task, emitErr)
	}
	att.SetInt("spills", res.Out.Spills)
	att.SetInt("records_out", res.OutRecs)
	att.SetInt("raw_bytes", res.Out.RawBytes)
	return res, nil
}

// ReduceTask describes one reduce task attempt.
type ReduceTask struct {
	Task int
	Exec int
	Node int
	// Segments are the task's partition of every map output, in map-task
	// order; all of them are present in the store.
	Segments []spill.Segment
	// FanIn and Compress parameterize the merge; TmpPrefix namespaces its
	// intermediate segments, which are gone when ExecReduce returns.
	FanIn     int
	Compress  bool
	TmpPrefix string
	// Base is a schimmy job's base partition: the previous round's output
	// partition Task, merge-joined with the shuffled stream. The caller
	// reads it, as it reads a map task's Split; nil without one.
	Base []byte
}

// ReduceResult is what a successful reduce attempt produced.
type ReduceResult struct {
	// Fetch is the framed bytes of all segments; Inter is the part that
	// map tasks on other nodes produced.
	Fetch, Inter int64
	// MergePasses, MaxMergeFanIn: spill.MergeStats' Passes and MaxFanIn.
	MergePasses, MaxMergeFanIn int64
	// MaxGroup is the byte size of the largest reduce group.
	MaxGroup int64
	// Output is the task's output partition as a SequenceFile of
	// OutRecords records; the caller stores it.
	Output     []byte
	OutRecords int64
}

// ExecReduce runs one reduce attempt: a k-way merge over the task's
// segments streams the sorted records, which are grouped by key (and, for
// a schimmy job, merge-joined with the base partition) and handed to the
// reducer; a reducer that is a TaskCloser is closed after the last group. A
// map-only job has no reducer, and the merged stream is the output. Shuffle
// accounting comes from segment metadata, so it does not depend on how a
// segment reached the store.
func ExecReduce(env *TaskEnv, t *ReduceTask, counters *Counters, att *trace.Span) (*ReduceResult, error) {
	fail := func(err error) (*ReduceResult, error) {
		return nil, fmt.Errorf("mapreduce: %s reduce task %d: %w", env.Job, t.Task, err)
	}
	res := &ReduceResult{}
	for _, seg := range t.Segments {
		res.Fetch += seg.RawBytes
		if seg.Node != t.Node {
			res.Inter += seg.RawBytes
		}
	}

	// The output is sized once, for the most it can hold: the shuffled
	// records plus, for a schimmy job, the base partition they fold into.
	// The buffer becomes the output file as it is (the DFS takes ownership,
	// it does not copy), so a reservation larger than what is written costs
	// capacity, not a second copy.
	var out dfs.RecordWriter
	base := dfs.NewRecordReader(t.Base)
	out.Grow(len(t.Base) + int(res.Fetch))

	it, mstats, err := spill.Merge(env.Store, t.Segments, spill.MergeOptions{
		FanIn:     t.FanIn,
		Compress:  t.Compress,
		TmpPrefix: t.TmpPrefix,
		Tracer:    env.Tracer,
		Parent:    att,
	})
	if err != nil {
		return fail(err)
	}
	defer it.Close()
	res.MergePasses, res.MaxMergeFanIn = mstats.Passes, mstats.MaxFanIn
	att.SetInt("merge_passes", mstats.Passes)
	att.SetInt("merge_segments", mstats.Segments)

	if env.NewReducer == nil {
		for {
			key, value, ok, err := it.Next()
			if err != nil {
				return fail(err)
			}
			if !ok {
				break
			}
			out.Append(key, value)
		}
	} else {
		ctx := env.context(t.Task, t.Exec, t.Node, counters, func(key, value []byte) { out.Append(key, value) })
		defer ctx.flush()
		reducer := env.NewReducer()
		group := groupPool.Get().(*Values)
		if res.MaxGroup, err = reduceGroups(ctx, reducer, group, base, it.Next); err != nil {
			return fail(err)
		}
		// No record of this attempt stays reachable from the pool.
		clear(group.vals[:cap(group.vals)])
		groupPool.Put(group)
		if c, ok := reducer.(TaskCloser); ok {
			if err := c.Close(ctx); err != nil {
				return fail(err)
			}
		}
	}
	res.Output = out.Bytes()
	res.OutRecords = int64(out.Records())
	return res, nil
}

// reduceGroups walks the sorted shuffle stream and (for schimmy jobs) the
// base partition in a merge-join, invoking the reducer once per key in the
// union. The base partition is the previous round's reduce output, so it
// is already in key order: it is read through a cursor, not sorted, and a
// key out of order or repeated in it is an error. An empty base reader is
// a job without one. Keys present only in the base still reach the
// reducer so master records survive rounds in which they receive no
// fragments. A slice next returns must stay valid until the call to next
// that follows the first record with a greater key (spill.Iterator.Next's
// rule): a group is held, together with the record that ended it, while
// its reducer runs, and dropped before next is called again. One Values
// and one backing slice serve every group of the task (the Reducer
// contract lets them): group, which the caller provides. It returns the
// byte size of the largest group processed.
func reduceGroups(ctx *TaskContext, reducer Reducer, group *Values, base *dfs.RecordReader,
	next func() (key, value []byte, ok bool, err error)) (int64, error) {

	var maxGroup int64
	bkey, bval, bok, err := base.Next()
	if err != nil {
		return 0, fmt.Errorf("schimmy base: %w", err)
	}
	rkey, rval, rok, err := next()
	if err != nil {
		return 0, err
	}
	for bok || rok {
		key := rkey
		if bok && (!rok || bytes.Compare(bkey, rkey) <= 0) {
			key = bkey
		}

		var master []byte
		if bok && bytes.Equal(bkey, key) {
			master = bval
			bkey, bval, bok, err = base.Next()
			if err != nil {
				return 0, fmt.Errorf("schimmy base: %w", err)
			}
			if bok && bytes.Compare(bkey, key) <= 0 {
				return 0, fmt.Errorf("schimmy base: key %q after %q: not in increasing order", bkey, key)
			}
		}

		group.vals, group.pos = group.vals[:0], 0
		groupBytes := int64(len(master))
		for rok && bytes.Equal(rkey, key) {
			group.vals = append(group.vals, rval)
			groupBytes += framedSize(rkey, rval)
			rkey, rval, rok, err = next()
			if err != nil {
				return 0, err
			}
		}
		if groupBytes > maxGroup {
			maxGroup = groupBytes
		}
		if err := reducer.Reduce(ctx, key, master, group); err != nil {
			return 0, err
		}
	}
	return maxGroup, nil
}

// groupPool holds the Values reduce tasks walk their groups with, so that a
// task starts with a backing slice grown to the largest group an earlier
// task of the process had.
var groupPool = sync.Pool{New: func() any { return new(Values) }}
