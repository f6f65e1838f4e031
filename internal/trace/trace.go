// Package trace is the unified tracing and metrics subsystem of the FFMR
// repo. Every observability claim the paper makes — rounds, A-Paths,
// MaxQ, map-output records, shuffle bytes per round (Table I, Figs 5-8)
// — is recorded here as first-class instrumentation instead of ad-hoc
// counters scattered through the engines.
//
// The model is a hierarchy of spans (run -> round -> job -> phase ->
// task-attempt) carrying wall-time plus integer/string annotations, and
// a typed counter/gauge registry for point metrics (the Hadoop-style
// named counters, the aug_proc queue-depth gauge). The exporter renders
// a recorded trace as a Chrome trace_event-compatible JSON file, which
// Analyze and the benchmark read back.
//
// The package depends only on the standard library, and every API is
// safe on nil receivers: a nil *Tracer produces nil *Spans and nil
// registry handles whose methods are all no-ops, so instrumented code
// needs no "is tracing on?" conditionals and pays near-zero cost when
// tracing is disabled.
package trace

import (
	"sync"
	"time"
)

// Span categories used across the system. Consumers (Analyze, the
// benchmark) key on these, so producers must use the constants.
const (
	CatRun   = "run"   // one full multi-round computation
	CatRound = "round" // one MR round or BSP superstep
	CatJob   = "job"   // one MapReduce job
	CatPhase = "phase" // map / shuffle+reduce phase of a job
	CatTask  = "task"  // one task attempt
	CatSpill = "spill" // one map-side spill (sort + write of a buffer)
	CatMerge = "merge" // one reduce-side intermediate merge pass

	// CatShuffle spans a reduce task's shuffle-fetch window on a worker;
	// CatRPC spans one RPC round-trip on the caller's side. Both feed
	// the analyzer's shuffle/rpc attribution buckets.
	CatShuffle = "shuffle"
	CatRPC     = "rpc"

	// CatRepair spans the dynamic-update repair phase between two runs:
	// one span per update batch, covering the host repair of the flow
	// vector and annotated with batch size, violation count, rerouted and
	// cancelled flow.
	CatRepair = "repair"

	// CatEvent marks a zero-duration event span recorded by Tracer.Event:
	// a scheduler decision or a crash, kept out of attribution.
	CatEvent = "event"
)

// Round-span attribute keys. The driver annotates each round span with
// the paper's Table I columns under these names, the values of its
// core.RoundStat.
const (
	AttrRound          = "round"
	AttrAPaths         = "a_paths"
	AttrSubmitted      = "submitted"
	AttrMaxQueue       = "max_q"
	AttrFlowDelta      = "flow_delta"
	AttrSourceMove     = "source_move"
	AttrSinkMove       = "sink_move"
	AttrActiveVertices = "active_vertices"
	AttrMapOutRecords  = "map_out_records"
	AttrMapOutBytes    = "map_out_bytes"
	AttrShuffleBytes   = "shuffle_bytes"
	AttrMaxRecordBytes = "max_record_bytes"
	AttrMaxGroupBytes  = "max_group_bytes"
	AttrOutputBytes    = "output_bytes"
	AttrSimTimeUS      = "sim_time_us"
	// AttrAugDrainWaitUS is how long the round's EndRound took, after the
	// last reducer returned, to decide which of the round's candidates
	// aug_proc accepts.
	AttrAugDrainWaitUS = "aug_drain_wait_us"
	// AttrCertifyUS is how long the driver's maximality check took after
	// the round (TerminationMaximal and every warm restart; only rounds
	// that accepted a path, and round #0, which the driver writes without
	// a job, run it). A warm restart's check before round 1 records it on
	// the run span, since the warm run did not write round #0.
	AttrCertifyUS = "certify_us"
	// AttrStop, on a run span, names the rule that ended the run:
	// "maximal", "quiescent", "paper" or "max-rounds". Warm restarts stop
	// by the certificate, so theirs is "maximal".
	AttrStop = "stop"
)

// Dynamic-update (warm restart) attribute keys. RunWarm marks its run
// span with AttrWarm=1 so exports distinguish warm rounds — whose
// counters are not comparable to a cold run's — and the repair span
// carries the batch's shape under the remaining keys.
const (
	AttrWarm          = "warm"
	AttrUpdates       = "updates"
	AttrViolations    = "violations"
	AttrCancelledFlow = "cancelled_flow"
	AttrReroutedFlow  = "rerouted_flow"
)

// Spill-subsystem attribute and counter names. The engine annotates job
// spans with these and accumulates same-named registry counters, so a
// trace export shows the out-of-core shuffle's work alongside the
// paper's Table I metrics.
const (
	AttrSpills       = "spills"
	AttrSpilledBytes = "spilled_bytes"
	AttrMergePasses  = "merge_passes"

	CounterSpills       = "spills"
	CounterSpilledBytes = "spilled bytes"
	CounterMergePasses  = "merge passes"
	CounterSpillObjects = "spill store objects"
	GaugeMergeFanIn     = "merge fan-in"
)

// Live driver metric names. The FF driver publishes these to the
// tracer's registry as rounds complete, so /metrics scrapes see run
// progress while the run is still going (the per-round trace spans only
// surface at export time).
const (
	GaugeFFRound       = "ff round"
	GaugeFFMaxFlow     = "ff max flow"
	GaugeFFActive      = "ff active vertices"
	CounterFFAPaths    = "ff augmenting paths"
	CounterFFSubmitted = "ff submitted paths"
	CounterFFRounds    = "ff rounds"
)

// Attr is one span annotation: an int64 metric or a string label.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// Value returns the attribute's value as an any, for JSON export.
func (a *Attr) Value() any {
	if a.IsStr {
		return a.Str
	}
	return a.Int
}

// Span is one timed region of the computation. Spans form a hierarchy
// through their parent link. All methods are safe on a nil receiver
// (no-ops), which is how untraced runs execute instrumented code paths.
type Span struct {
	t      *Tracer
	id     int64
	parent int64 // 0 = root
	name   string
	cat    string
	tid    int64 // Chrome trace "thread" lane
	start  time.Time
	dur    time.Duration
	ended  bool
	attrs  []Attr
	// remote is the master-trace position a shipped root span stitches
	// under (zero for local-only spans). See ship.go.
	remote Context
}

// Tracer records spans and hosts the metrics registry. Create with New;
// a nil *Tracer is a valid no-op tracer.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	spans  []*Span
	nextID int64
	reg    *Registry
	// ring holds the last DumpRing spans Drain removed, so a dump still
	// shows what a worker already shipped (see dump.go).
	ring     []*Span
	ringNext int
}

// New creates an empty tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{start: time.Now(), reg: NewRegistry()}
}

// Registry returns the tracer's metrics registry (nil for a nil tracer;
// the nil registry's methods are no-ops).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Start opens a new span under parent (nil parent = a root span) and
// returns it. The caller must End it. On a nil tracer it returns nil,
// which every Span method accepts.
func (t *Tracer) Start(cat, name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{t: t, id: t.nextID, name: name, cat: cat, tid: 1, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	t.spans = append(t.spans, s)
	return s
}

// End closes the span, fixing its duration. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
}

// SetInt sets (or overwrites) an integer annotation.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i] = Attr{Key: key, Int: v}
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
}

// SetStr sets (or overwrites) a string annotation.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i] = Attr{Key: key, Str: v, IsStr: true}
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, IsStr: true})
}

// SetTID assigns the span's Chrome-trace lane (default 1). Concurrent
// spans on distinct lanes render side by side in the trace viewer; the
// MR engine uses one lane per simulated cluster node.
func (s *Span) SetTID(tid int64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.tid = tid
}

// Int returns an integer annotation's value.
func (s *Span) Int(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key && !s.attrs[i].IsStr {
			return s.attrs[i].Int, true
		}
	}
	return 0, false
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Cat returns the span's category ("" for nil).
func (s *Span) Cat() string {
	if s == nil {
		return ""
	}
	return s.cat
}

// Duration returns the span's recorded duration (time so far if the
// span has not ended; 0 for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.durLocked()
}

func (s *Span) durLocked() time.Duration {
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// snapshot is one span's state copied out under the tracer lock, used by
// the exporters so they can format without holding the lock.
type snapshot struct {
	id, parent int64
	name, cat  string
	tid        int64
	startUS    int64 // microseconds since tracer start
	durUS      int64
	attrs      []Attr
}

// snapshots copies out every span the tracer holds, preceded, when
// withRing is set, by the drained spans in the dump ring (oldest first).
func (t *Tracer) snapshots(withRing bool) []snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	if withRing && t.ring != nil {
		spans = make([]*Span, 0, len(t.ring)+len(t.spans))
		for i := range t.ring {
			if s := t.ring[(t.ringNext+i)%len(t.ring)]; s != nil {
				spans = append(spans, s)
			}
		}
		spans = append(spans, t.spans...)
	}
	out := make([]snapshot, 0, len(spans))
	for _, s := range spans {
		out = append(out, snapshot{
			id: s.id, parent: s.parent, name: s.name, cat: s.cat, tid: s.tid,
			startUS: s.start.Sub(t.start).Microseconds(),
			durUS:   s.durLocked().Microseconds(),
			attrs:   append([]Attr(nil), s.attrs...),
		})
	}
	return out
}
