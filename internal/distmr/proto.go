package distmr

import "ffmr/internal/spill"

// This file defines the RPC envelopes exchanged between master and
// workers. Every payload — task descriptors, heartbeats, task results,
// prefetch hints — travels pre-encoded in the custom wire format
// (wire.go, spec in DESIGN.md §13) inside these thin []byte envelopes,
// and the envelopes themselves frame onto the wire via rpcutil's frame
// codec (wire_rpc.go holds the Message implementations), so the codec
// tax on the task hot path is the cost of the hand-rolled framing —
// no reflection-driven gob anywhere on the steady-state path.

// RegisterArgs carries one wire-encoded JoinRequest.
type RegisterArgs struct {
	Data []byte
}

// RegisterReply assigns the worker its identity and cadence.
type RegisterReply struct {
	Worker uint64
	// Instance identifies this master instance; the worker echoes it in
	// every heartbeat so a restarted master (fresh instance, fresh id
	// counter) can tell stale workers from re-registered ones.
	Instance          uint64
	HeartbeatInterval int64 // nanoseconds
}

// HeartbeatArgs carries one wire-encoded Heartbeat.
type HeartbeatArgs struct {
	Data []byte
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

// RetireArgs carries one wire-encoded Retire request.
type RetireArgs struct {
	Data []byte
}

// RetireReply is empty.
type RetireReply struct{}

// HandoffArgs carries one wire-encoded HandoffDescriptor, asking a
// draining worker for the stored bytes of the listed segments.
type HandoffArgs struct {
	Desc []byte
}

// HandoffReply returns the stored (possibly compressed) bytes of each
// requested segment, in descriptor order.
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

// StartTaskArgs carries one wire-encoded TaskDescriptor. The call
// returns as soon as the worker has accepted (or crashed on) the task;
// the result arrives later as a Completion riding a heartbeat, so one
// worker can run many attempts without holding an RPC open per task.
type StartTaskArgs struct {
	Desc []byte
}

// StartTaskReply is empty: acceptance is the reply. An RPC-level error
// means the worker died before accepting (the master reassigns without
// consuming an attempt); task body failures travel in the eventual
// completion's TaskResult.Err and consume Fault.MaxAttempts.
type StartTaskReply struct{}

// PrefetchArgs carries one wire-encoded PrefetchDescriptor, hinting a
// worker to pull shuffle segments ahead of reduce dispatch.
type PrefetchArgs struct {
	Desc []byte
}

// PrefetchReply is empty; the hint is advisory and never fails.
type PrefetchReply struct{}

// WatchArgs subscribes the master to a worker's death: the call blocks
// until the worker exits, so a crash surfaces to the master as the
// pending call erroring out — the prompt-failure signal the old
// blocking RunTask lease provided, without pinning a call per task.
type WatchArgs struct{}

// WatchReply is empty; Watch only ever returns when the worker dies or
// shuts down.
type WatchReply struct{}

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

// FetchSegmentArgs asks a worker for one spill segment's stored bytes.
type FetchSegmentArgs struct {
	Name string
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

// CleanJobReply is empty.
type CleanJobReply struct{}

// ShutdownArgs asks a worker to exit.
type ShutdownArgs struct{}

// ShutdownReply is empty.
type ShutdownReply struct{}
