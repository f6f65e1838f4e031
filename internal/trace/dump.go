package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// This file makes the trace its own crash record. Tracer.Event records
// a decision or a crash as a zero-duration span, so it rides Drain,
// shipping and Import like any other span; WriteDump writes what the
// tracer still holds plus its ring of recently drained spans in the
// Chrome format, so a crash dump is a trace that `ffmr -analyze` reads
// beside the run's main trace (ParseChromeTraces merges them).

// DumpRing is how many drained spans a tracer keeps for WriteDump. The
// ring is allocated once, on the first Drain that removes a span.
const DumpRing = 256

// CounterDumpRingEvictions counts spans pushed out of the dump ring by
// newer ones: how much of a worker's shipped history a dump cannot show.
const CounterDumpRingEvictions = "trace dump ring evictions"

// Event records one already-ended, zero-duration span of category
// CatEvent under parent (nil: a root event). kv are alternating
// key/value pairs, slog-style; integers stay integers, everything else
// is rendered as a string.
func (t *Tracer) Event(parent *Span, msg string, kv ...any) {
	if t == nil {
		return
	}
	attrs := make([]Attr, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, attrOf(fmt.Sprint(kv[i]), kv[i+1]))
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{t: t, id: t.nextID, name: msg, cat: CatEvent, tid: 1, start: now, ended: true, attrs: attrs}
	if parent != nil {
		s.parent, s.tid = parent.id, parent.tid
	}
	t.spans = append(t.spans, s)
}

func attrOf(key string, v any) Attr {
	switch x := v.(type) {
	case int:
		return Attr{Key: key, Int: int64(x)}
	case int64:
		return Attr{Key: key, Int: x}
	case uint64:
		return Attr{Key: key, Int: int64(x)}
	}
	return Attr{Key: key, Str: fmt.Sprint(v), IsStr: true}
}

// keepLocked pushes a drained span into the dump ring and reports
// whether that evicted an older one. Callers hold t.mu.
func (t *Tracer) keepLocked(s *Span) int64 {
	if t.ring == nil {
		t.ring = make([]*Span, DumpRing)
	}
	var evicted int64
	if t.ring[t.ringNext] != nil {
		evicted = 1
	}
	t.ring[t.ringNext] = s
	t.ringNext = (t.ringNext + 1) % len(t.ring)
	return evicted
}

// WriteDump writes the spans the tracer holds, preceded by the last
// DumpRing spans it drained, plus its registry, as a Chrome trace whose
// process metadata names source and reason ("crash", "live"). The
// metadata also carries the tracer's wall-clock start, so
// ParseChromeTraces can put dumps from several processes on one
// timeline.
func (t *Tracer) WriteDump(w io.Writer, source, reason string) error {
	return t.writeChrome(w, source, reason, true)
}

// ParseChromeTraces parses several documents written by
// WriteChromeTrace or WriteDump into one event list: the first is the
// base, every later one gets its own span-id space and process id and
// is shifted onto the base's clock by the wall-clock starts their
// metadata records.
func ParseChromeTraces(docs ...[]byte) ([]ParsedEvent, error) {
	var out []ParsedEvent
	var base int64
	for i, doc := range docs {
		evs, err := ParseChromeTrace(doc)
		if err != nil {
			return nil, fmt.Errorf("document %d: %w", i+1, err)
		}
		start := int64(0)
		for j := range evs {
			if evs[j].Ph == "M" {
				start, _ = evs[j].Int(argStartUnixUS)
			}
		}
		if i == 0 {
			base = start
		}
		shift, idOffset := int64(0), float64(int64(i)<<40)
		if base != 0 && start != 0 {
			shift = start - base
		}
		for j := range evs {
			e := &evs[j]
			e.Pid = int64(i + 1)
			e.Ts += shift
			if i == 0 || e.Args == nil {
				continue
			}
			for _, k := range []string{"span", "parent_span"} {
				if v, ok := e.Args[k].(float64); ok {
					e.Args[k] = v + idOffset
				}
			}
		}
		out = append(out, evs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out, nil
}
