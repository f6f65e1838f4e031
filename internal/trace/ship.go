package trace

import "time"

// This file is the cross-process half of the tracer: a worker records
// spans into its own local Tracer, drains the finished ones as
// ShippedSpans, and the master imports them into its tracer under the
// position a Context named — so one exported trace shows both sides of
// every RPC. The shipping transport (batching, at-least-once resend,
// dedup, clock-offset correction) lives in internal/distmr; this file
// only defines the span-side primitives it composes.

// Context identifies a position in the master's trace hierarchy. It
// rides every task-dispatch and prefetch RPC so spans recorded on the
// remote side can be stitched back under the span that caused them. The
// zero Context means "no tracing position" and imports under it become
// root spans.
type Context struct {
	// Run is the id of the enclosing round (or run) span on the master,
	// for grouping; 0 when the master runs untraced.
	Run int64
	// Job is the distmr job sequence number — the import router uses it
	// to drop spans from jobs that have already concluded.
	Job int64
	// Round is the algorithm round the job belongs to.
	Round int64
	// Span is the id, in the master's tracer, of the parent span a
	// shipped root span is stitched under (the job span for tasks).
	Span int64
}

// ID returns the span's tracer-local id (0 for nil — ids start at 1).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetRemote tags a root span with the master-trace position it should be
// stitched under when shipped. Child spans inherit their position from
// their parent chain and don't need a Context.
func (s *Span) SetRemote(ctx Context) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.remote = ctx
}

// ShippedSpan is one finished span extracted from a recording process's
// tracer for shipment. IDs and Parent are tracer-local to the recording
// process; the importer remaps them. Start is the recorder's wall clock,
// which the importer corrects by the estimated clock offset.
type ShippedSpan struct {
	ID     int64
	Parent int64 // 0 = root: stitch under Remote.Span
	Name   string
	Cat    string
	TID    int64
	Start  time.Time
	Dur    time.Duration
	Remote Context
	Attrs  []Attr
}

// Drain removes and returns every finished span whose whole ancestor
// chain has also finished (a parent whose id is no longer present counts
// as finished: it was drained earlier). Spans are returned in id order
// — parents before children, since ids are assigned at Start — so an
// importer can remap Parent references in one forward pass. Draining
// complete subtrees only is what guarantees a batch never references a
// parent the importer hasn't seen.
func (t *Tracer) Drain() []ShippedSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]*Span, len(t.spans))
	for _, s := range t.spans {
		if s.ended {
			byID[s.id] = s
		}
	}
	complete := func(s *Span) bool {
		for {
			if !s.ended {
				return false
			}
			if s.parent == 0 {
				return true
			}
			p, ok := byID[s.parent]
			if !ok {
				// The parent is either unended (not in byID — but then
				// this chain has an unended ancestor and the unended
				// check below catches it via the parent's own entry) or
				// already drained. Distinguish by scanning the live set.
				return !t.liveLocked(s.parent)
			}
			s = p
		}
	}
	var out []ShippedSpan
	keep := t.spans[:0]
	for _, s := range t.spans {
		if !complete(s) {
			keep = append(keep, s)
			continue
		}
		out = append(out, ShippedSpan{
			ID: s.id, Parent: s.parent, Name: s.name, Cat: s.cat, TID: s.tid,
			Start: s.start, Dur: s.dur, Remote: s.remote,
			Attrs: append([]Attr(nil), s.attrs...),
		})
	}
	for i := len(keep); i < len(t.spans); i++ {
		t.spans[i] = nil
	}
	t.spans = keep
	return out
}

// liveLocked reports whether a span with the given id is still held by
// the tracer. Callers hold t.mu.
func (t *Tracer) liveLocked(id int64) bool {
	for _, s := range t.spans {
		if s.id == id {
			return true
		}
	}
	return false
}

// ImportedSpan describes one remote span being imported into this
// tracer. Parent is an id in THIS tracer (0 = root); Start must already
// be corrected to this process's clock.
type ImportedSpan struct {
	Parent int64
	Name   string
	Cat    string
	TID    int64
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// Import records an already-finished remote span and returns its id in
// this tracer (0 on a nil tracer).
func (t *Tracer) Import(sp *ImportedSpan) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{
		t: t, id: t.nextID, parent: sp.Parent, name: sp.Name, cat: sp.Cat,
		tid: sp.TID, start: sp.Start, dur: sp.Dur, ended: true,
		attrs: append([]Attr(nil), sp.Attrs...),
	}
	if s.tid == 0 {
		s.tid = 1
	}
	t.spans = append(t.spans, s)
	return s.id
}
