// Package distmr is the distributed MapReduce execution backend: a
// master that schedules the engine's jobs onto workers which are real
// processes (or in-process harness workers) speaking net/rpc over TCP,
// the way the paper's Hadoop deployment schedules map and reduce tasks
// onto tasktrackers. It provides worker registration with periodic
// heartbeats, task leases with timeout-based reassignment when a worker
// dies or goes silent, cross-worker speculative backup attempts for
// stragglers, and a network shuffle in which each worker serves its map
// output spill segments to reducers over the wire.
//
// The backend plugs in behind the engine via mapreduce.Cluster.Distributed
// and must reproduce the simulated engine's per-round statistics exactly:
// task placement (Split.Node, partition % Nodes), partitioning, spill
// segmentation and merge order all mirror the simulated paths, and
// counters are merged from winning attempts only, so crashes, retries
// and backup attempts leave no trace in the job's Result.
package distmr

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ffmr/internal/rpcutil"
	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// Phase identifies which half of a job a task belongs to.
type Phase uint8

const (
	// PhaseMap is a map task over one input split.
	PhaseMap Phase = iota
	// PhaseReduce is a reduce task over one partition.
	PhaseReduce
)

// String names the phase as the engine does in errors and spans.
func (p Phase) String() string {
	if p == PhaseMap {
		return "map"
	}
	return "reduce"
}

// MapSource tells a reduce task where one map task's output for its
// partition lives: the worker serving the segments and the segment
// metadata, in spill order (the same order the simulated engine's
// partSegments produces, so merge statistics agree).
type MapSource struct {
	// MapTask is the producing map task's index, reported back in
	// TaskResult.LostMaps when the segments cannot be fetched.
	MapTask int
	// Worker and Addr identify the worker holding the segments; a reduce
	// running on that worker reads its local store instead of fetching.
	Worker uint64
	Addr   string
	// Prefix, when non-empty, says the segments no longer live on a
	// worker: they were handed off (drain) or rehydrated (master restart)
	// into the master's DFS, each spill object whole under
	// Prefix+Segment.Name, and the reducer's worker copies the object via
	// Master.ReadFile and reads its segment at Segment.Offset. The segment
	// metadata is unchanged by a hand-off, so shuffle and merge statistics
	// stay identical.
	Prefix string
	// Segments are this partition's segments from the winning attempt.
	Segments []spill.Segment
}

// TaskDescriptor is the master-to-worker task assignment, the argument
// of Worker.StartTask, in the custom wire format below (EncodeTask /
// DecodeTask). The call returns as soon as the worker has accepted (or
// crashed on) the task; the result arrives later as a Completion riding
// a heartbeat, so one worker can run many attempts without holding an
// RPC open per task. One descriptor fully determines a task's
// execution, so a reassigned or speculated attempt on another worker
// computes the identical result.
type TaskDescriptor struct {
	// JobSeq namespaces the job's state on workers (code cache, side file
	// cache, store prefixes); JobName feeds error text and injection
	// hashes, matching the simulated engine's coordinates.
	JobSeq  uint64
	JobName string
	// Kind and Params reconstruct the job's code via the worker-side kind
	// registry (closures cannot cross the process boundary).
	Kind   string
	Params []byte

	Phase Phase
	// Task is the task index; Attempt is the body-failure attempt number
	// (the simulated engine's coordinate, so injected failures replay
	// identically); Assign is the assignment sequence number, advancing on
	// every dispatch including reassignments and backups, which keys
	// store prefixes and worker-crash draws.
	Task    int
	Attempt int
	Assign  int
	// Node is the simulated cluster node this task is accounted to
	// (Split.Node for maps, partition % Nodes for reduces).
	Node  int
	Round int

	NumReducers  int
	MemoryBudget int64
	Compress     bool
	MergeFanIn   int

	// Fault-injection coordinates, mirrored from the cluster's Faults.
	Seed            int64
	DiskFailureRate float64
	CrashRate       float64

	// Reduce-side schimmy configuration; the worker fetches the base
	// partition from the master's file system.
	Schimmy     bool
	SchimmyBase string

	// SideFiles are fetched from the master once per job and cached.
	SideFiles []string

	// Split is the map task's input data (record-aligned, master-planned).
	Split []byte
	// Sources are the reduce task's shuffle inputs, in map-task order.
	Sources []MapSource

	// Ctx is the master-trace position this task executes under: worker
	// task spans are tagged with it and stitched under Ctx.Span (the job
	// span) when shipped back. Zero when the master runs untraced.
	Ctx trace.Context
}

// Heartbeat is the periodic worker-to-master liveness report, carried in
// the custom wire format (EncodeHeartbeat / DecodeHeartbeat). The gauges
// feed the master's trace registry and the /status view; TasksDone
// piggybacks per-task progress on the beat, so the master's live status
// needs no extra RPC traffic. Since wire version 3 the beat is also the
// task-completion channel: finished attempts ride in Completions instead
// of each holding its own RPC open for the whole execution.
type Heartbeat struct {
	Worker uint64
	// Instance echoes the master-instance nonce the worker registered
	// with. Master generations restart their worker-id counter, so after
	// a restart a stale worker's old id can collide with a re-registered
	// worker's new one; the nonce mismatch forces the stale worker onto
	// the Unknown → re-register path instead of silently impersonating.
	Instance     uint64
	Seq          uint64
	Running      int64
	StoreObjects int64
	StoreBytes   int64
	TasksDone    int64
	// Prefetched is the cumulative count of shuffle segments this
	// worker's prefetcher has pulled ahead of reduce dispatch.
	Prefetched int64
	// Completions are task results finished since the last acknowledged
	// beat. The worker retains them across failed beats and resends, so
	// the master must treat them as at-least-once: stale entries (wrong
	// job, already-concluded assignment) are discarded on receipt.
	Completions []Completion

	// SentUnixNano is the worker's wall clock at send; RTTNanos is the
	// worker-measured round-trip of its previous successful beat.
	// Together they give the master one clock-offset sample per beat
	// (offset = recv - (sent + rtt/2)); the master keeps the sample with
	// the smallest RTT, whose midpoint error is tightest, and uses it to
	// place shipped span timestamps on its own clock (DESIGN.md §14).
	SentUnixNano int64
	RTTNanos     int64
	// SpanBatches carry drained trace spans under the same at-least-once
	// queue-until-acked discipline as Completions, deduplicated on the
	// master by (worker, batch Seq).
	SpanBatches []SpanBatch
	// Counters and Hists are absolute snapshots of the worker's registry
	// (sorted by name); the master merges value-minus-last-seen, which a
	// redelivered beat cannot double-count.
	Counters []MetricSample
	Hists    []HistSample
}

// Completion is one finished task attempt riding on a heartbeat. Result
// holds the wire-encoded TaskResult (EncodeResult); keeping it encoded
// inside the heartbeat lets the master discard stale completions on the
// JobSeq/assignment check without paying for a decode.
type Completion struct {
	JobSeq uint64
	Phase  Phase
	Task   int
	// Assign echoes TaskDescriptor.Assign, master-epoch offset included.
	Assign int
	Result []byte
}

// PrefetchDescriptor asks a worker to pull shuffle segments into its
// local store ahead of reduce dispatch, while the map phase is still
// running. It is advisory: the worker may drop it under load, and the
// reduce task's own fetch path skips segments that already arrived —
// so prefetch changes wall-clock overlap, never bytes or counters.
type PrefetchDescriptor struct {
	JobSeq uint64
	// Sources name the segments to pull, in the same MapSource shape a
	// reduce descriptor carries.
	Sources []MapSource
	// Ctx is the master-trace position (job span) background prefetch
	// spans are stitched under.
	Ctx trace.Context
}

// wireVersion 2 added MapSource.Prefix and the membership messages
// (JoinRequest, Retire, HandoffDescriptor). Version 3 moved task
// results and winner manifests off gob (EncodeResult / DecodeResult),
// added heartbeat completion piggybacks and the Prefetched gauge, and
// added PrefetchDescriptor. Version 4 added trace-context propagation
// (TaskDescriptor.Ctx, PrefetchDescriptor.Ctx) and telemetry shipping
// on heartbeats (SentUnixNano/RTTNanos clock samples, SpanBatches, and
// absolute Counter/Hist snapshots — wire_span.go, DESIGN.md §14).
// Version 5 added Segment.Offset: a spill is one object and a segment a
// range of it.
// Decoders accept exactly the current version: master and workers ship
// from one binary (DESIGN.md §13's compatibility rule), so a mismatch
// means a stale process, and refusing it beats silently misreading
// frames.
const wireVersion = 5

// decodeNew adapts a payload's in-place decode method to the exported
// DecodeX(data) (*X, error) form. The payload keeps slices of data.
func decodeNew[T any](data []byte, decode func(*T, []byte) error) (*T, error) {
	v := new(T)
	if err := decode(v, data); err != nil {
		return nil, err
	}
	return v, nil
}

func appendSegment(b []byte, s *spill.Segment) []byte {
	b = rpcutil.AppendString(b, s.Name)
	b = binary.AppendVarint(b, s.Offset)
	b = binary.AppendVarint(b, int64(s.Partition))
	b = binary.AppendVarint(b, s.Records)
	b = binary.AppendVarint(b, s.RawBytes)
	b = binary.AppendVarint(b, s.StoredBytes)
	b = rpcutil.AppendBool(b, s.Compressed)
	b = binary.AppendVarint(b, int64(s.Node))
	return b
}

func appendSource(b []byte, src *MapSource) []byte {
	b = binary.AppendVarint(b, int64(src.MapTask))
	b = binary.AppendUvarint(b, src.Worker)
	b = rpcutil.AppendString(b, src.Addr)
	b = rpcutil.AppendString(b, src.Prefix)
	b = binary.AppendUvarint(b, uint64(len(src.Segments)))
	for j := range src.Segments {
		b = appendSegment(b, &src.Segments[j])
	}
	return b
}

// EncodeTask serializes a task descriptor into a fresh buffer. Hot paths
// use AppendTask with a pooled buffer instead.
func EncodeTask(d *TaskDescriptor) []byte {
	return AppendTask(make([]byte, 0, 64+len(d.Params)+len(d.Split)), d)
}

// AppendTask appends a wire-encoded task descriptor to b and returns the
// extended buffer (the binary.AppendUvarint convention, so callers can
// encode into pooled buffers without an allocation per message).
func AppendTask(b []byte, d *TaskDescriptor) []byte {
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, d.JobSeq)
	b = rpcutil.AppendString(b, d.JobName)
	b = rpcutil.AppendString(b, d.Kind)
	b = rpcutil.AppendBytes(b, d.Params)
	b = append(b, byte(d.Phase))
	b = binary.AppendVarint(b, int64(d.Task))
	b = binary.AppendVarint(b, int64(d.Attempt))
	b = binary.AppendVarint(b, int64(d.Assign))
	b = binary.AppendVarint(b, int64(d.Node))
	b = binary.AppendVarint(b, int64(d.Round))
	b = binary.AppendVarint(b, int64(d.NumReducers))
	b = binary.AppendVarint(b, d.MemoryBudget)
	b = rpcutil.AppendBool(b, d.Compress)
	b = binary.AppendVarint(b, int64(d.MergeFanIn))
	b = binary.AppendVarint(b, d.Seed)
	b = rpcutil.AppendF64(b, d.DiskFailureRate)
	b = rpcutil.AppendF64(b, d.CrashRate)
	b = rpcutil.AppendBool(b, d.Schimmy)
	b = rpcutil.AppendString(b, d.SchimmyBase)
	b = binary.AppendUvarint(b, uint64(len(d.SideFiles)))
	for _, s := range d.SideFiles {
		b = rpcutil.AppendString(b, s)
	}
	b = rpcutil.AppendBytes(b, d.Split)
	b = binary.AppendUvarint(b, uint64(len(d.Sources)))
	for i := range d.Sources {
		b = appendSource(b, &d.Sources[i])
	}
	b = appendCtx(b, &d.Ctx)
	return b
}

// EncodeHeartbeat serializes a heartbeat into a fresh buffer. Hot paths
// use AppendHeartbeat with a pooled buffer instead.
func EncodeHeartbeat(h *Heartbeat) []byte {
	return AppendHeartbeat(make([]byte, 0, 48), h)
}

// AppendHeartbeat appends a wire-encoded heartbeat, completion
// piggybacks included, to b and returns the extended buffer.
func AppendHeartbeat(b []byte, h *Heartbeat) []byte {
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, h.Worker)
	b = binary.AppendUvarint(b, h.Instance)
	b = binary.AppendUvarint(b, h.Seq)
	b = binary.AppendVarint(b, h.Running)
	b = binary.AppendVarint(b, h.StoreObjects)
	b = binary.AppendVarint(b, h.StoreBytes)
	b = binary.AppendVarint(b, h.TasksDone)
	b = binary.AppendVarint(b, h.Prefetched)
	b = binary.AppendUvarint(b, uint64(len(h.Completions)))
	for i := range h.Completions {
		c := &h.Completions[i]
		b = binary.AppendUvarint(b, c.JobSeq)
		b = append(b, byte(c.Phase))
		b = binary.AppendVarint(b, int64(c.Task))
		b = binary.AppendVarint(b, int64(c.Assign))
		b = rpcutil.AppendBytes(b, c.Result)
	}
	b = binary.AppendVarint(b, h.SentUnixNano)
	b = binary.AppendVarint(b, h.RTTNanos)
	b = binary.AppendUvarint(b, uint64(len(h.SpanBatches)))
	for i := range h.SpanBatches {
		b = appendSpanBatchBody(b, &h.SpanBatches[i])
	}
	b = binary.AppendUvarint(b, uint64(len(h.Counters)))
	for i := range h.Counters {
		b = rpcutil.AppendString(b, h.Counters[i].Name)
		b = binary.AppendVarint(b, h.Counters[i].Value)
	}
	b = binary.AppendUvarint(b, uint64(len(h.Hists)))
	for i := range h.Hists {
		hs := &h.Hists[i]
		b = rpcutil.AppendString(b, hs.Name)
		b = binary.AppendVarint(b, hs.Count)
		b = binary.AppendVarint(b, hs.Sum)
		b = binary.AppendUvarint(b, uint64(len(hs.Buckets)))
		for _, n := range hs.Buckets {
			b = binary.AppendVarint(b, n)
		}
	}
	return b
}

func readSegment(d *rpcutil.Reader, s *spill.Segment) {
	s.Name = d.Str("segment name")
	s.Offset = d.Varint("segment offset")
	s.Partition = d.Int("segment partition")
	s.Records = d.Varint("segment records")
	s.RawBytes = d.Varint("segment raw bytes")
	s.StoredBytes = d.Varint("segment stored bytes")
	s.Compressed = d.Bool("segment compressed")
	s.Node = int(d.Varint("segment node"))
	// No object holds a range that starts or ends before its first byte.
	// Whether the range ends inside the object is checked where it is
	// opened.
	if s.Offset < 0 || s.StoredBytes < 0 || s.Offset+s.StoredBytes < 0 {
		d.Fail("segment range")
	}
}

func readSource(d *rpcutil.Reader, src *MapSource) {
	src.MapTask = d.Int("source map task")
	src.Worker = d.Uvarint("source worker")
	src.Addr = d.Str("source addr")
	src.Prefix = d.Str("source prefix")
	if m := d.Count("source segments"); m > 0 {
		src.Segments = make([]spill.Segment, m)
		for j := range src.Segments {
			readSegment(d, &src.Segments[j])
		}
	}
}

// DecodeTask parses an encoded task descriptor. It never panics on
// malformed input.
func DecodeTask(data []byte) (*TaskDescriptor, error) {
	return decodeNew(data, (*TaskDescriptor).decode)
}

func (t *TaskDescriptor) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("distmr: unknown task wire version %d", v)
	}
	*t = TaskDescriptor{}
	t.JobSeq = d.Uvarint("job seq")
	t.JobName = d.Str("job name")
	t.Kind = d.Str("kind")
	t.Params = d.Bytes("params")
	phase := d.Byte("phase")
	if d.Err() == nil && phase > byte(PhaseReduce) {
		return fmt.Errorf("distmr: unknown phase %d", phase)
	}
	t.Phase = Phase(phase)
	t.Task = d.Int("task")
	t.Attempt = d.Int("attempt")
	t.Assign = d.Int("assign")
	t.Node = d.Int("node")
	t.Round = d.Int("round")
	t.NumReducers = d.Int("reducers")
	t.MemoryBudget = d.Varint("memory budget")
	t.Compress = d.Bool("compress")
	t.MergeFanIn = d.Int("merge fan-in")
	t.Seed = d.Varint("seed")
	t.DiskFailureRate = d.F64("disk failure rate")
	t.CrashRate = d.F64("crash rate")
	t.Schimmy = d.Bool("schimmy")
	t.SchimmyBase = d.Str("schimmy base")
	if n := d.Count("side files"); n > 0 {
		t.SideFiles = make([]string, n)
		for i := range t.SideFiles {
			t.SideFiles[i] = d.Str("side file")
		}
	}
	t.Split = d.Bytes("split")
	if n := d.Count("sources"); n > 0 {
		t.Sources = make([]MapSource, n)
		for i := range t.Sources {
			readSource(d, &t.Sources[i])
		}
	}
	readCtx(d, &t.Ctx)
	return d.Finish("task descriptor")
}

// JoinRequest is a worker's membership announcement, the argument of
// Master.Register. A mid-job join makes the worker immediately eligible
// for pending leases and shuffle serving: the scheduler's next dispatch
// pass sees it in pickWorker.
type JoinRequest struct {
	// Addr is the worker's own listen address, which the master dials
	// back for task dispatch and which reducers dial for shuffle fetches.
	Addr string
	// Pid identifies the worker process (0 for in-process workers).
	Pid int
	// PrevWorker is the id this worker held before losing its identity
	// (the master restarted, or expired it during a partition); 0 on a
	// fresh join. The master logs the lineage but always assigns a new id
	// — stale leases keyed to the old id must not resurrect.
	PrevWorker uint64
}

// Retire asks the master to drain a worker: no new leases, running
// attempts finish, completed map output is handed off through DFS, and
// only then is the worker deregistered (told to exit via its next
// heartbeat).
type Retire struct {
	Worker uint64
	// Reason is free-form ("sigterm", "autoscaler", ...), for the log.
	Reason string
}

// HandoffDescriptor lists the spill objects a draining worker must
// surrender to the master before it may deregister, so its completed map
// tasks are not re-executed.
type HandoffDescriptor struct {
	JobSeq   uint64
	Segments []string
}

// EncodeJoin serializes a join request.
func EncodeJoin(j *JoinRequest) []byte {
	b := make([]byte, 0, 32+len(j.Addr))
	b = append(b, wireVersion)
	b = rpcutil.AppendString(b, j.Addr)
	b = binary.AppendVarint(b, int64(j.Pid))
	b = binary.AppendUvarint(b, j.PrevWorker)
	return b
}

// DecodeJoin parses an encoded join request. It never panics on
// malformed input.
func DecodeJoin(data []byte) (*JoinRequest, error) {
	return decodeNew(data, (*JoinRequest).decode)
}

func (j *JoinRequest) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("distmr: unknown join wire version %d", v)
	}
	*j = JoinRequest{}
	j.Addr = d.Str("join addr")
	j.Pid = d.Int("join pid")
	j.PrevWorker = d.Uvarint("join prev worker")
	return d.Finish("join request")
}

// EncodeRetire serializes a retire request.
func EncodeRetire(r *Retire) []byte {
	b := make([]byte, 0, 16+len(r.Reason))
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, r.Worker)
	b = rpcutil.AppendString(b, r.Reason)
	return b
}

// DecodeRetire parses an encoded retire request. It never panics on
// malformed input.
func DecodeRetire(data []byte) (*Retire, error) {
	return decodeNew(data, (*Retire).decode)
}

func (r *Retire) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("distmr: unknown retire wire version %d", v)
	}
	*r = Retire{}
	r.Worker = d.Uvarint("retire worker")
	r.Reason = d.Str("retire reason")
	return d.Finish("retire request")
}

// EncodeHandoff serializes a hand-off descriptor.
func EncodeHandoff(h *HandoffDescriptor) []byte {
	b := make([]byte, 0, 16)
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, h.JobSeq)
	b = binary.AppendUvarint(b, uint64(len(h.Segments)))
	for _, s := range h.Segments {
		b = rpcutil.AppendString(b, s)
	}
	return b
}

// DecodeHandoff parses an encoded hand-off descriptor. It never panics
// on malformed input.
func DecodeHandoff(data []byte) (*HandoffDescriptor, error) {
	return decodeNew(data, (*HandoffDescriptor).decode)
}

func (h *HandoffDescriptor) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("distmr: unknown handoff wire version %d", v)
	}
	*h = HandoffDescriptor{}
	h.JobSeq = d.Uvarint("handoff job seq")
	if n := d.Count("handoff segments"); n > 0 {
		h.Segments = make([]string, n)
		for i := range h.Segments {
			h.Segments[i] = d.Str("handoff segment")
		}
	}
	return d.Finish("handoff descriptor")
}

// EncodeResult serializes a task result into a fresh buffer. Hot paths
// use AppendResult with a pooled buffer instead.
func EncodeResult(r *TaskResult) []byte {
	return AppendResult(make([]byte, 0, 128+len(r.OutputData)), r)
}

// AppendResult appends a wire-encoded task result to b and returns the
// extended buffer. Counters are emitted in sorted key order so equal
// results encode to identical bytes (the canonical-form invariant the
// fuzz targets check, DESIGN.md §13).
func AppendResult(b []byte, r *TaskResult) []byte {
	b = append(b, wireVersion)
	b = rpcutil.AppendString(b, r.Err)
	b = binary.AppendVarint(b, r.InRecs)
	b = binary.AppendVarint(b, r.OutRecs)
	b = binary.AppendVarint(b, r.RawBytes)
	b = binary.AppendVarint(b, r.MaxFrame)
	b = binary.AppendVarint(b, r.Spills)
	b = binary.AppendUvarint(b, uint64(len(r.Parts)))
	for _, part := range r.Parts {
		b = binary.AppendUvarint(b, uint64(len(part)))
		for j := range part {
			b = appendSegment(b, &part[j])
		}
	}
	b = rpcutil.AppendBytes(b, r.OutputData)
	b = binary.AppendVarint(b, r.OutBytes)
	b = binary.AppendVarint(b, r.OutRecords)
	b = binary.AppendVarint(b, r.Fetch)
	b = binary.AppendVarint(b, r.Inter)
	b = binary.AppendVarint(b, r.MergePasses)
	b = binary.AppendVarint(b, r.MaxMergeFanIn)
	b = binary.AppendVarint(b, r.MaxGroup)
	b = binary.AppendUvarint(b, uint64(len(r.LostMaps)))
	for _, m := range r.LostMaps {
		b = binary.AppendVarint(b, int64(m))
	}
	b = binary.AppendUvarint(b, uint64(len(r.LostFrom)))
	for _, w := range r.LostFrom {
		b = binary.AppendUvarint(b, w)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Counters)))
	if len(r.Counters) > 0 {
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = rpcutil.AppendString(b, k)
			b = binary.AppendVarint(b, r.Counters[k])
		}
	}
	b = binary.AppendVarint(b, r.DurNanos)
	return b
}

// DecodeResult parses an encoded task result. It never panics on
// malformed input. Empty collections decode to nil (count 0 → nil map
// and nil slices), so decode∘encode is a fixed point on decoded values.
func DecodeResult(data []byte) (*TaskResult, error) {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("distmr: unknown result wire version %d", v)
	}
	r := &TaskResult{}
	r.Err = d.Str("result err")
	r.InRecs = d.Varint("in recs")
	r.OutRecs = d.Varint("out recs")
	r.RawBytes = d.Varint("raw bytes")
	r.MaxFrame = d.Varint("max frame")
	r.Spills = d.Varint("spills")
	if n := d.Count("parts"); n > 0 {
		r.Parts = make([][]spill.Segment, n)
		for i := range r.Parts {
			if m := d.Count("part segments"); m > 0 {
				r.Parts[i] = make([]spill.Segment, m)
				for j := range r.Parts[i] {
					readSegment(d, &r.Parts[i][j])
				}
			}
		}
	}
	r.OutputData = d.CopyBytes("output data")
	r.OutBytes = d.Varint("out bytes")
	r.OutRecords = d.Varint("out records")
	r.Fetch = d.Varint("fetch")
	r.Inter = d.Varint("inter")
	r.MergePasses = d.Varint("merge passes")
	r.MaxMergeFanIn = d.Varint("max merge fan-in")
	r.MaxGroup = d.Varint("max group")
	if n := d.Count("lost maps"); n > 0 {
		r.LostMaps = make([]int, n)
		for i := range r.LostMaps {
			r.LostMaps[i] = d.Int("lost map")
		}
	}
	if n := d.Count("lost from"); n > 0 {
		r.LostFrom = make([]uint64, n)
		for i := range r.LostFrom {
			r.LostFrom[i] = d.Uvarint("lost from worker")
		}
	}
	if n := d.Count("counters"); n > 0 {
		r.Counters = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			k := d.Str("counter key")
			r.Counters[k] = d.Varint("counter value")
		}
	}
	r.DurNanos = d.Varint("dur nanos")
	if err := d.Finish("task result"); err != nil {
		return nil, err
	}
	return r, nil
}

// EncodePrefetch serializes a prefetch descriptor into a fresh buffer.
// Hot paths use AppendPrefetch with a pooled buffer instead.
func EncodePrefetch(p *PrefetchDescriptor) []byte {
	return AppendPrefetch(make([]byte, 0, 64), p)
}

// AppendPrefetch appends a wire-encoded prefetch descriptor to b and
// returns the extended buffer.
func AppendPrefetch(b []byte, p *PrefetchDescriptor) []byte {
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, p.JobSeq)
	b = binary.AppendUvarint(b, uint64(len(p.Sources)))
	for i := range p.Sources {
		b = appendSource(b, &p.Sources[i])
	}
	b = appendCtx(b, &p.Ctx)
	return b
}

// DecodePrefetch parses an encoded prefetch descriptor. It never panics
// on malformed input.
func DecodePrefetch(data []byte) (*PrefetchDescriptor, error) {
	return decodeNew(data, (*PrefetchDescriptor).decode)
}

func (p *PrefetchDescriptor) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("distmr: unknown prefetch wire version %d", v)
	}
	*p = PrefetchDescriptor{}
	p.JobSeq = d.Uvarint("prefetch job seq")
	if n := d.Count("prefetch sources"); n > 0 {
		p.Sources = make([]MapSource, n)
		for i := range p.Sources {
			readSource(d, &p.Sources[i])
		}
	}
	readCtx(d, &p.Ctx)
	return d.Finish("prefetch descriptor")
}

// encodeManifest serializes a winner manifest for the job's DFS recovery
// state. Manifests are cold-path (one write per task winner), so the
// nested result is carried length-prefixed rather than pooled.
func encodeManifest(m *taskManifest) []byte {
	b := make([]byte, 0, 160)
	b = append(b, wireVersion)
	b = append(b, byte(m.Phase))
	b = binary.AppendVarint(b, int64(m.Task))
	b = binary.AppendVarint(b, int64(m.Attempt))
	b = rpcutil.AppendBytes(b, EncodeResult(&m.Result))
	return b
}

// decodeManifest parses an encoded winner manifest. It never panics on
// malformed input.
func decodeManifest(data []byte) (*taskManifest, error) {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("distmr: unknown manifest wire version %d", v)
	}
	m := &taskManifest{}
	phase := d.Byte("manifest phase")
	if d.Err() == nil && phase > byte(PhaseReduce) {
		return nil, fmt.Errorf("distmr: unknown manifest phase %d", phase)
	}
	m.Phase = Phase(phase)
	m.Task = d.Int("manifest task")
	m.Attempt = d.Int("manifest attempt")
	resBytes := d.Bytes("manifest result")
	if err := d.Finish("manifest"); err != nil {
		return nil, err
	}
	res, err := DecodeResult(resBytes)
	if err != nil {
		return nil, err
	}
	m.Result = *res
	return m, nil
}

// DecodeHeartbeat parses an encoded heartbeat. It never panics on
// malformed input.
func DecodeHeartbeat(data []byte) (*Heartbeat, error) {
	return decodeNew(data, (*Heartbeat).decode)
}

func (h *Heartbeat) decode(data []byte) error {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("distmr: unknown heartbeat wire version %d", v)
	}
	*h = Heartbeat{}
	h.Worker = d.Uvarint("worker")
	h.Instance = d.Uvarint("instance")
	h.Seq = d.Uvarint("seq")
	h.Running = d.Varint("running")
	h.StoreObjects = d.Varint("store objects")
	h.StoreBytes = d.Varint("store bytes")
	h.TasksDone = d.Varint("tasks done")
	h.Prefetched = d.Varint("prefetched")
	if n := d.Count("completions"); n > 0 {
		h.Completions = make([]Completion, n)
		for i := range h.Completions {
			c := &h.Completions[i]
			c.JobSeq = d.Uvarint("completion job seq")
			phase := d.Byte("completion phase")
			if d.Err() == nil && phase > byte(PhaseReduce) {
				return fmt.Errorf("distmr: unknown completion phase %d", phase)
			}
			c.Phase = Phase(phase)
			c.Task = d.Int("completion task")
			c.Assign = d.Int("completion assign")
			c.Result = d.Bytes("completion result")
		}
	}
	h.SentUnixNano = d.Varint("sent unix nano")
	h.RTTNanos = d.Varint("rtt nanos")
	if n := d.Count("span batches"); n > 0 {
		h.SpanBatches = make([]SpanBatch, n)
		for i := range h.SpanBatches {
			readSpanBatchBody(d, &h.SpanBatches[i])
		}
	}
	if n := d.Count("metric samples"); n > 0 {
		h.Counters = make([]MetricSample, n)
		for i := range h.Counters {
			h.Counters[i].Name = d.Str("metric name")
			h.Counters[i].Value = d.Varint("metric value")
		}
	}
	if n := d.Count("hist samples"); n > 0 {
		h.Hists = make([]HistSample, n)
		for i := range h.Hists {
			hs := &h.Hists[i]
			hs.Name = d.Str("hist name")
			hs.Count = d.Varint("hist count")
			hs.Sum = d.Varint("hist sum")
			if m := d.Count("hist buckets"); m > 0 {
				hs.Buckets = make([]int64, m)
				for j := range hs.Buckets {
					hs.Buckets[j] = d.Varint("hist bucket")
				}
			}
		}
	}
	return d.Finish("heartbeat")
}
