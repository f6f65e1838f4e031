package distmr

import "ffmr/internal/spill"

// This file defines the RPC replies and the scalar requests exchanged
// between master and workers. The structured requests — JoinRequest,
// Heartbeat, Retire, HandoffDescriptor, TaskDescriptor,
// PrefetchDescriptor (wire.go, spec in DESIGN.md §13) — are RPC
// arguments themselves: every type here and there frames itself onto
// the wire as an rpcutil.Message (wire_rpc.go), so a call encodes its
// message exactly once.

// RegisterReply assigns the worker its identity and cadence.
type RegisterReply struct {
	Worker uint64
	// Instance identifies this master instance; the worker echoes it in
	// every heartbeat so a restarted master (fresh instance, fresh id
	// counter) can tell stale workers from re-registered ones.
	Instance          uint64
	HeartbeatInterval int64 // nanoseconds
}

// HeartbeatReply is the master's response; Shutdown tells the worker to
// exit (the master is shutting down). Unknown means the master has no
// live record of this worker id (it was expired, or the master
// restarted): the worker should re-register for a fresh identity.
// Retired means the worker's drain completed — its outputs are handed
// off — and it may now exit cleanly.
type HeartbeatReply struct {
	Shutdown bool
	Unknown  bool
	Retired  bool
}

// HandoffReply returns the stored (possibly compressed) bytes of each
// requested spill object, whole, in descriptor order.
type HandoffReply struct {
	Data [][]byte
}

// ReadFileArgs asks the master for a file from the job's DFS (side
// files, schimmy base partitions).
type ReadFileArgs struct {
	Name string
}

// ReadFileReply returns the file contents.
type ReadFileReply struct {
	Data []byte
}

// Empty is the argument or reply of every call that carries nothing:
// Worker.Watch and Worker.Shutdown take it, and Master.Retire,
// Worker.StartTask, Worker.Prefetch, Worker.Watch, Worker.CleanJob and
// Worker.Shutdown answer with it (acceptance is the reply).
type Empty struct{}

// TaskResult is what a completed task attempt reports. Only the winning
// attempt's result is merged into the job's statistics, so retried and
// speculated attempts leave no trace.
type TaskResult struct {
	// Err is a task body failure (consumes an attempt); empty on success.
	Err string

	// Map-side statistics, mirroring the simulated engine's mapTaskStats:
	// InRecs input records, OutRecs pre-combine emissions, RawBytes the
	// framed output size, MaxFrame the largest framed record.
	InRecs   int64
	OutRecs  int64
	RawBytes int64
	MaxFrame int64
	Spills   int64
	// Parts holds the map output segment metadata per partition; the
	// segments live in the worker's local store until the job is cleaned.
	Parts [][]spill.Segment

	// Reduce-side results.
	OutputData    []byte // the output partition's record file
	OutBytes      int64
	OutRecords    int64
	Fetch         int64 // shuffle bytes fetched (raw)
	Inter         int64 // subset fetched across simulated node boundaries
	MergePasses   int64
	MaxMergeFanIn int64
	MaxGroup      int64
	// LostMaps lists map tasks whose segments could not be fetched; the
	// master re-runs them and re-dispatches this reduce. Not a failure.
	// LostFrom holds, per entry, the worker ID the failed fetch targeted,
	// so the master only invalidates a map whose winning output still
	// lives on that worker — a map already re-run elsewhere is left alone.
	LostMaps []int
	LostFrom []uint64

	// Counters is the attempt's user counter snapshot.
	Counters map[string]int64
	// DurNanos is the attempt's measured execution time, feeding the
	// cost model exactly as the simulated engine's measured durations do.
	DurNanos int64
}

// FetchSegmentArgs asks a worker for one spill segment's stored bytes:
// the range [Offset, Offset+Length) of the named spill object.
type FetchSegmentArgs struct {
	Name   string
	Offset int64
	Length int64
}

// FetchSegmentReply returns the segment's stored (possibly compressed)
// bytes.
type FetchSegmentReply struct {
	Data []byte
}

// CleanJobArgs retires a job on a worker: its code is closed and its
// store prefix removed.
type CleanJobArgs struct {
	JobSeq uint64
}
