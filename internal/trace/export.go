package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing / Perfetto "JSON Array" flavour). Spans export as
// complete events (ph "X"), event spans as instant events (ph "i"),
// registry metrics as counter events (ph "C") stamped at the end of the
// trace, and one process metadata event (ph "M") leads the document.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process metadata arg keys: the wall-clock start the trace's
// timestamps count from, and why a dump was written.
const (
	argStartUnixUS = "start_unix_us"
	argReason      = "reason"
)

// WriteChromeTrace exports the recorded spans and registry metrics as a
// Chrome trace_event JSON document, loadable in chrome://tracing or
// Perfetto. Unended spans are exported with their duration so far.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return t.writeChrome(w, "main", "", false)
}

func (t *Tracer) writeChrome(w io.Writer, source, reason string, withRing bool) error {
	meta := map[string]any{"name": source}
	if t != nil {
		meta[argStartUnixUS] = t.start.UnixMicro()
	}
	if reason != "" {
		meta[argReason] = reason
	}
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: meta},
	}}
	var endTS int64
	for _, sn := range t.snapshots(withRing) {
		args := make(map[string]any, len(sn.attrs)+2)
		for i := range sn.attrs {
			args[sn.attrs[i].Key] = sn.attrs[i].Value()
		}
		// The span's own id travels in the args so tools reading the
		// exported file (the critical-path analyzer) can rebuild the
		// span DAG from parent_span references.
		args["span"] = sn.id
		if sn.parent != 0 {
			args["parent_span"] = sn.parent
		}
		ev := chromeEvent{Name: sn.name, Cat: sn.cat, Ph: "X", Ts: sn.startUS, Pid: 1, Tid: sn.tid, Args: args}
		if sn.cat == CatEvent {
			ev.Ph, ev.S = "i", "t"
		} else {
			dur := sn.durUS
			ev.Dur = &dur
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
		if e := sn.startUS + sn.durUS; e > endTS {
			endTS = e
		}
	}
	reg := t.Registry()
	counters := reg.CounterSnapshot()
	for _, name := range sortedKeys(counters) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name, Cat: "counter", Ph: "C", Ts: endTS, Pid: 1, Tid: 1,
			Args: map[string]any{"value": counters[name]},
		})
	}
	gauges := reg.GaugeSnapshot()
	for _, name := range sortedKeys(gauges) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name, Cat: "gauge", Ph: "C", Ts: endTS, Pid: 1, Tid: 1,
			Args: map[string]any{"value": gauges[name].Last, "max": gauges[name].Max},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// ParsedEvent is one trace_event read back from an exported JSON file,
// exposed so tests and tools can assert on emitted traces without
// depending on the wire field names.
type ParsedEvent struct {
	Name string
	Cat  string
	Ph   string
	Pid  int64
	Ts   int64
	Dur  int64
	Tid  int64
	Args map[string]any
}

// Int returns an integer arg (trace_event JSON numbers decode as
// float64; values are converted back).
func (e *ParsedEvent) Int(key string) (int64, bool) {
	v, ok := e.Args[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	if !ok {
		return 0, false
	}
	return int64(f), true
}

// ParseChromeTrace decodes a document written by WriteChromeTrace,
// returning its events in timestamp order (ties broken by span id via
// original order, which snapshots preserve).
func ParseChromeTrace(data []byte) ([]ParsedEvent, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Pid  int64          `json:"pid"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: parse chrome trace: %w", err)
	}
	out := make([]ParsedEvent, 0, len(doc.TraceEvents))
	for _, e := range doc.TraceEvents {
		out = append(out, ParsedEvent{Name: e.Name, Cat: e.Cat, Ph: e.Ph, Pid: e.Pid, Ts: e.Ts, Dur: e.Dur, Tid: e.Tid, Args: e.Args})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out, nil
}
