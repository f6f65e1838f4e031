package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log/slog"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ffmr/internal/graph"
	"ffmr/internal/obsv"
	"ffmr/internal/rpcutil"
	"ffmr/internal/trace"
)

// Metric names the aug_proc server registers on a tracer's registry.
const (
	// MetricAugBatches counts the batches held for a round-end decision.
	MetricAugBatches = "augproc batches"
	// HistAugAcceptNS observes, once per round, how long EndRound took to
	// decide the round: the distribution behind MetricAugDrainWaitNS.
	HistAugAcceptNS = "augproc accept latency ns"
	// MetricAugDrainWaitNS accumulates the nanoseconds EndRound spent
	// deciding the round after its last reducer had returned (dedupe, sort,
	// decode and accept): the time aug_proc holds the round. The paper's
	// aug_proc "finishes immediately after the last reducer"; this is how
	// far from immediately.
	MetricAugDrainWaitNS = "augproc drain wait ns"
)

// This file implements aug_proc, the FF2 "stateful extension for MR"
// (paper Section IV-A): an external process, reachable from every reducer
// over a persistent connection, that collects candidate augmenting paths
// as they are found and accepts them at the round's end. It is the acceptance service of every variant: FF1,
// whose sink reducer decides acceptance itself, publishes the outcome
// here (Publish) instead of submitting candidates. A reduce task collects
// the candidates of all its groups and submits them as one batch when it
// closes (ffReducer.Close), or sooner once it holds submitFlushBytes of
// them; a batch is held and acknowledged immediately. EndRound, once the
// round's last reducer has returned, keeps one complete execution per
// reduce task and accepts the surviving candidates in their encoded byte
// order, so the accepted set does not depend on which reducer finished
// first. The paper accepts in arrival order, overlapping acceptance with
// the reduce phase; the canonical order gives that overlap up, and
// AugProcStats.DrainWait measures what it costs. The paper implements the
// connection with Java RMI; this implementation uses net/rpc over TCP,
// which has the same persistent-connection, request/response semantics.

// SubmitArgs is the RPC request: a batch of wire-encoded candidate
// augmenting paths (graph.EncodePath format), tagged with the reduce
// task and execution id that produced it so EndRound can discard batches
// duplicated by task re-execution.
type SubmitArgs struct {
	// Round fences the submission to the round that produced it. A
	// reduce attempt orphaned by a master restart (its generation died,
	// but the worker keeps running it) can submit after the driver has
	// moved on — its candidates describe an older residual graph, and
	// accepting them into the current round would corrupt the flow.
	Round int
	Task  int
	Exec  int
	Paths [][]byte
}

// SubmitReply is the (empty) RPC acknowledgement; Submit returns as soon
// as the batch is held.
type SubmitReply struct{}

// AppendFrame implements rpcutil.Message.
func (a *SubmitArgs) AppendFrame(b []byte) []byte {
	b = binary.AppendVarint(b, int64(a.Round))
	b = binary.AppendVarint(b, int64(a.Task))
	b = binary.AppendVarint(b, int64(a.Exec))
	b = binary.AppendUvarint(b, uint64(len(a.Paths)))
	for _, p := range a.Paths {
		b = rpcutil.AppendBytes(b, p)
	}
	return b
}

// DecodeFrame implements rpcutil.Message. The paths outlive the codec's
// pooled frame (they wait until EndRound), so the frame is copied once
// and every path is a slice of that copy.
func (a *SubmitArgs) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(bytes.Clone(b))
	a.Round = int(d.Varint("submit round"))
	a.Task = int(d.Varint("submit task"))
	a.Exec = int(d.Varint("submit exec"))
	a.Paths = nil
	if n := d.Count("submit path count"); n > 0 {
		a.Paths = make([][]byte, n)
		for i := range a.Paths {
			a.Paths[i] = d.Bytes("submit path")
		}
	}
	return d.Finish("submit args")
}

// AppendFrame implements rpcutil.Message.
func (*SubmitReply) AppendFrame(b []byte) []byte { return b }

// DecodeFrame implements rpcutil.Message.
func (*SubmitReply) DecodeFrame(b []byte) error {
	return rpcutil.NewReader(b).Finish("submit reply")
}

// PublishArgs is the FF1 RPC request: the sink vertex's reducer performs
// the round's final acceptance itself (Fig. 4 lines 12-14) and publishes
// the outcome — the AugmentedEdges table and the acceptance counts — for
// the driver to broadcast next round. Round fences it exactly as
// SubmitArgs.Round fences a submission.
type PublishArgs struct {
	Round  int
	Stats  AugProcStats
	Deltas map[graph.EdgeID]int64
}

// AppendFrame implements rpcutil.Message. The table rides in its side
// file encoding, which is sorted, so equal outcomes are equal bytes.
func (a *PublishArgs) AppendFrame(b []byte) []byte {
	b = binary.AppendVarint(b, int64(a.Round))
	b = binary.AppendVarint(b, a.Stats.Submitted)
	b = binary.AppendVarint(b, a.Stats.Accepted)
	b = binary.AppendVarint(b, a.Stats.TotalDelta)
	return rpcutil.AppendBytes(b, EncodeDeltas(a.Deltas))
}

// DecodeFrame implements rpcutil.Message.
func (a *PublishArgs) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	a.Round = int(d.Varint("publish round"))
	a.Stats = AugProcStats{
		Submitted:  d.Varint("publish submitted"),
		Accepted:   d.Varint("publish accepted"),
		TotalDelta: d.Varint("publish total delta"),
	}
	table := d.Bytes("publish deltas")
	if err := d.Finish("publish args"); err != nil {
		return err
	}
	var err error
	a.Deltas, err = DecodeDeltas(table)
	return err
}

// AugProcStats reports one round of aug_proc activity: the columns
// "A-Paths" and "MaxQ" of the paper's Table I.
type AugProcStats struct {
	// Submitted counts candidate paths received.
	Submitted int64
	// Accepted counts candidates the accumulator accepted (A-Paths).
	Accepted int64
	// TotalDelta is the flow added by accepted paths this round.
	TotalDelta int64
	// MaxQueue counts the paths held for the round-end decision (MaxQ),
	// re-executions' copies included.
	MaxQueue int64
	// DecodeErrors counts malformed submissions (always 0 in practice).
	DecodeErrors int64
	// DrainWait is how long EndRound took to decide the round (see
	// MetricAugDrainWaitNS). It is the only timing here.
	DrainWait time.Duration
}

// augBatch is one submission, held in pending until EndRound. Batches
// stay apart per (task, exec) so EndRound can keep exactly one complete
// execution per reduce task: a task re-executed after a failure or a
// worker death submits its candidates again, and counting both copies
// would skew Submitted/Accepted relative to the simulated engine's
// single-execution accounting.
type augBatch struct {
	task  int
	exec  int
	paths [][]byte
}

// AugProcServer is the aug_proc service. Create with NewAugProcServer,
// drive with BeginRound/EndRound around each MapReduce round, and Close
// when the computation finishes.
type AugProcServer struct {
	listener net.Listener
	stale    atomic.Int64 // paths dropped for a round mismatch (cumulative)

	// Trace instrumentation, installed by SetTracer (atomic pointers so
	// RPC goroutines need no extra locking; the nil defaults are valid
	// no-op handles).
	batches     atomic.Pointer[trace.Counter]
	acceptHist  atomic.Pointer[trace.Histogram]
	drainWaitNS atomic.Pointer[trace.Counter]

	// log, installed by SetLogger, receives per-round accept summaries
	// (atomic for the same reason as the trace handles).
	log atomic.Pointer[slog.Logger]

	mu      sync.Mutex
	round   int // current round; stale submissions are dropped
	acc     Accumulator
	stats   AugProcStats
	serving bool
	// scratch is the one path every candidate is decoded into on its way
	// to the accumulator, which keeps nothing of it.
	scratch graph.ExcessPath
	// pending holds the round's submissions for EndRound, and held counts
	// their paths.
	pending []augBatch
	held    int64
}

// SetTracer installs trace instrumentation: the batch count, the per-round
// decision time and its histogram on the tracer's registry. Passing a nil
// tracer leaves the server uninstrumented.
func (s *AugProcServer) SetTracer(t *trace.Tracer) {
	reg := t.Registry()
	if reg == nil {
		return
	}
	s.batches.Store(reg.Counter(MetricAugBatches))
	s.acceptHist.Store(reg.Histogram(HistAugAcceptNS))
	s.drainWaitNS.Store(reg.Counter(MetricAugDrainWaitNS))
}

// SetLogger installs a structured logger that receives one summary
// event per round at EndRound. A nil logger silences it.
func (s *AugProcServer) SetLogger(l *slog.Logger) {
	s.log.Store(obsv.Or(l))
}

// logger returns the installed logger (the shared no-op when none is).
func (s *AugProcServer) logger() *slog.Logger {
	if l := s.log.Load(); l != nil {
		return l
	}
	return obsv.Nop()
}

// RPC service wrapper type so only Submit and Publish are exported over
// the wire.
type augProcService struct{ s *AugProcServer }

// Submit holds a batch of candidate augmenting paths for the round-end
// decision and returns immediately (paper: "inserts them to a processing
// queue and returns immediately to avoid delaying the reducer").
func (svc *augProcService) Submit(args *SubmitArgs, _ *SubmitReply) error {
	s := svc.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if args.Round != s.round {
		// Stale execution from an earlier round (see SubmitArgs.Round):
		// acknowledge and drop. The submitter's result is not going to be
		// used either way.
		s.stale.Add(int64(len(args.Paths)))
		return nil
	}
	s.pending = append(s.pending, augBatch{task: args.Task, exec: args.Exec, paths: args.Paths})
	s.held += int64(len(args.Paths))
	s.batches.Load().Add(1)
	return nil
}

// Publish installs the FF1 sink reducer's outcome as the round's result.
// It holds nothing (there is nothing left to decide, and FF1's MaxQ stays
// 0) and replaces rather than accumulates: exactly one reduce group, the
// sink vertex's, ever publishes, so a second call is a retried or
// reassigned attempt of it carrying the same outcome.
func (svc *augProcService) Publish(args *PublishArgs, _ *SubmitReply) error {
	s := svc.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if args.Round != s.round {
		// Orphaned in an earlier round (see SubmitArgs.Round): its table
		// describes an older residual graph. Acknowledge and drop.
		s.stale.Add(args.Stats.Submitted)
		return nil
	}
	s.stats = args.Stats
	s.acc = Accumulator{pending: args.Deltas}
	return nil
}

// NewAugProcServer starts an aug_proc server on a loopback TCP port.
func NewAugProcServer() (*AugProcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: aug_proc listen: %w", err)
	}
	s := &AugProcServer{listener: ln}
	srv := rpc.NewServer()
	if err := srv.RegisterName("AugProc", &augProcService{s: s}); err != nil {
		ln.Close()
		return nil, fmt.Errorf("core: aug_proc register: %w", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go srv.ServeCodec(rpcutil.NewServerCodec(conn))
		}
	}()
	s.serving = true
	return s, nil
}

// Addr returns the server's listen address for clients to dial.
func (s *AugProcServer) Addr() string { return s.listener.Addr().String() }

// acceptLocked decodes wire-encoded candidates and runs them through the
// accumulator, updating round stats. Callers hold s.mu.
func (s *AugProcServer) acceptLocked(paths [][]byte) {
	p := &s.scratch
	for _, pb := range paths {
		if err := graph.DecodePathInto(pb, p); err != nil {
			s.stats.DecodeErrors++
			continue
		}
		s.stats.Submitted++
		if d := s.acc.Accept(p, graph.CapInf); d > 0 {
			s.stats.Accepted++
			s.stats.TotalDelta += d
		}
	}
}

// BeginRound resets per-round state before a MapReduce round starts.
// The round number fences submissions: only batches tagged with it are
// held until the next BeginRound.
func (s *AugProcServer) BeginRound(round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.round = round
	s.acc.Reset()
	s.stats = AugProcStats{}
	s.pending, s.held = nil, 0
}

// EndRound decides the round once its last reducer has returned: it keeps
// one complete execution per reduce task, accepts the surviving candidates
// in canonical byte order, and returns the round's statistics and the
// accepted flow deltas for the next round's AugmentedEdges side file.
func (s *AugProcServer) EndRound() (AugProcStats, map[graph.EdgeID]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := time.Now()
	s.acceptLocked(dedupePending(s.pending))
	s.pending = nil
	wait := time.Since(t0)
	s.drainWaitNS.Load().Add(wait.Nanoseconds())
	s.acceptHist.Load().Observe(wait.Nanoseconds())
	st := s.stats
	st.MaxQueue = s.held
	st.DrainWait = wait
	s.logger().Debug("aug_proc round",
		"submitted", st.Submitted, "accepted", st.Accepted,
		"flow_delta", st.TotalDelta, "max_queue", st.MaxQueue,
		"drain_wait", wait, "stale_dropped_total", s.stale.Load())
	return st, s.acc.Deltas()
}

// dedupePending reduces the round's buffered submissions to one
// execution per reduce task and returns the surviving candidate paths
// in canonical byte order. Every complete execution of a task submits
// the identical candidate sequence (the reduce is deterministic in its
// sorted input), in one batch or — past submitFlushBytes — in several,
// while an execution interrupted mid-task submits nothing or, if it had
// flushed early, a prefix — so the execution with the most paths is
// complete whenever any is, and ties are broken toward the lowest exec
// id for reproducibility.
func dedupePending(pending []augBatch) [][]byte {
	total := make(map[[2]int]int) // (task, exec) -> paths submitted
	for _, sub := range pending {
		total[[2]int{sub.task, sub.exec}] += len(sub.paths)
	}
	chosen := make(map[int]int) // task -> winning exec
	for key, n := range total {
		task, exec := key[0], key[1]
		cur, ok := chosen[task]
		if !ok || n > total[[2]int{task, cur}] || (n == total[[2]int{task, cur}] && exec < cur) {
			chosen[task] = exec
		}
	}
	n := 0
	for task, exec := range chosen {
		n += total[[2]int{task, exec}]
	}
	out := make([][]byte, 0, n)
	for _, sub := range pending {
		if chosen[sub.task] == sub.exec {
			out = append(out, sub.paths...)
		}
	}
	slices.SortFunc(out, bytes.Compare)
	return out
}

// Close shuts the server down.
func (s *AugProcServer) Close() error {
	if !s.serving {
		return nil
	}
	s.serving = false
	return s.listener.Close()
}

// AugProcClient is a reducer's persistent connection to aug_proc.
// It is safe for concurrent use by multiple reducer tasks (net/rpc
// multiplexes calls over one connection).
type AugProcClient struct {
	c *rpc.Client
}

// DialAugProc connects to an aug_proc server, retrying transient dial
// failures with backoff (workers racing a just-started server).
func DialAugProc(addr string) (*AugProcClient, error) {
	c, err := rpcutil.DialRPC(addr, rpcutil.Policy{})
	if err != nil {
		return nil, fmt.Errorf("core: aug_proc dial: %w", err)
	}
	return &AugProcClient{c: c}, nil
}

// submitFlushBytes bounds the encoded candidates a reduce task holds
// before it sends them ahead of its Close: the paper's FB6 accepts 801 K
// paths in a single round, so one batch per task is not a bound.
const submitFlushBytes = 256 << 10

// submitBuf is a batch of candidates being collected for one Submit call:
// the request and the one buffer all of its paths are encoded into
// (args.Paths are slices of it).
type submitBuf struct {
	args SubmitArgs
	enc  []byte
}

// add encodes paths onto the end of the batch; the caller may reuse them.
func (sb *submitBuf) add(paths []graph.ExcessPath) {
	for i := range paths {
		// A path encoded before enc had to grow stays behind in the old
		// array, which its Paths entry keeps alive and valid.
		start := len(sb.enc)
		sb.enc = graph.AppendPath(sb.enc, &paths[i])
		sb.args.Paths = append(sb.args.Paths, sb.enc[start:len(sb.enc):len(sb.enc)])
	}
}

// reset empties the batch, keeping its storage but no array enc has
// outgrown.
func (sb *submitBuf) reset() {
	clear(sb.args.Paths)
	sb.args.Paths, sb.enc = sb.args.Paths[:0], sb.enc[:0]
}

// submitPool recycles requests across Submit calls, clients and the FF4+
// reduce tasks of a process, which keep one for their batch until Close.
// Call has written the request to the connection by the time it returns,
// so nothing references a request that goes back to the pool.
var submitPool = sync.Pool{New: func() any { return new(submitBuf) }}

// Submit sends candidate augmenting paths to aug_proc, tagged with the
// round, the submitting reduce task and its execution id
// (TaskContext.Exec). The round tag lets the server drop submissions
// from executions orphaned in an earlier round. The paths are encoded
// before Submit returns; the caller may reuse them.
func (c *AugProcClient) Submit(round, task, exec int, paths []graph.ExcessPath) error {
	sb := submitPool.Get().(*submitBuf)
	defer submitPool.Put(sb)
	sb.reset()
	sb.add(paths)
	return c.send(round, task, exec, sb)
}

// send implements candidateSink: one Submit call carrying the batch. An
// empty batch is not sent.
func (c *AugProcClient) send(round, task, exec int, sb *submitBuf) error {
	if len(sb.args.Paths) == 0 {
		return nil
	}
	sb.args.Round, sb.args.Task, sb.args.Exec = round, task, exec
	return c.c.Call("AugProc.Submit", &sb.args, &SubmitReply{})
}

// Publish sends the FF1 sink reducer's acceptance outcome for round to
// aug_proc (see PublishArgs).
func (c *AugProcClient) Publish(round int, deltas map[graph.EdgeID]int64, st AugProcStats) error {
	return c.c.Call("AugProc.Publish", &PublishArgs{Round: round, Stats: st, Deltas: deltas}, &SubmitReply{})
}

// Close closes the connection.
func (c *AugProcClient) Close() error { return c.c.Close() }
