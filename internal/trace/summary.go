package trace

import "time"

// RoundSummary is the per-round view of a traced run: exactly the
// columns of the paper's Table I plus the auxiliary counters the driver
// records on each round span. The stats tables and the experiment
// harness derive their numbers from these summaries, so a rendered
// Table I and an exported trace file always agree — they are the same
// instrumentation.
type RoundSummary struct {
	Round          int
	APaths         int64
	Submitted      int64
	MaxQueue       int64
	FlowDelta      int64
	SourceMove     int64
	SinkMove       int64
	ActiveVertices int64
	MapOutRecords  int64
	MapOutBytes    int64
	ShuffleBytes   int64
	MaxRecordBytes int64
	MaxGroupBytes  int64
	OutputBytes    int64
	SimTime        time.Duration
	WallTime       time.Duration
}

func summaryFromSnapshot(sn snapshot) RoundSummary {
	get := func(key string) int64 {
		for i := range sn.attrs {
			if sn.attrs[i].Key == key && !sn.attrs[i].IsStr {
				return sn.attrs[i].Int
			}
		}
		return 0
	}
	return RoundSummary{
		Round:          int(get(AttrRound)),
		APaths:         get(AttrAPaths),
		Submitted:      get(AttrSubmitted),
		MaxQueue:       get(AttrMaxQueue),
		FlowDelta:      get(AttrFlowDelta),
		SourceMove:     get(AttrSourceMove),
		SinkMove:       get(AttrSinkMove),
		ActiveVertices: get(AttrActiveVertices),
		MapOutRecords:  get(AttrMapOutRecords),
		MapOutBytes:    get(AttrMapOutBytes),
		ShuffleBytes:   get(AttrShuffleBytes),
		MaxRecordBytes: get(AttrMaxRecordBytes),
		MaxGroupBytes:  get(AttrMaxGroupBytes),
		OutputBytes:    get(AttrOutputBytes),
		SimTime:        time.Duration(get(AttrSimTimeUS)) * time.Microsecond,
		WallTime:       time.Duration(sn.durUS) * time.Microsecond,
	}
}

// RoundSummariesUnder extracts the per-round summaries recorded beneath
// one run span, in round order. Returns nil for a nil run span (the
// untraced case).
func RoundSummariesUnder(run *Span) []RoundSummary {
	if run == nil {
		return nil
	}
	var out []RoundSummary
	for _, sn := range run.t.childrenOf(run, CatRound) {
		out = append(out, summaryFromSnapshot(sn))
	}
	return out
}

// RoundSummaries extracts every round span recorded by the tracer
// regardless of parent run, in start order — convenient for CLIs that
// trace a single run.
func (t *Tracer) RoundSummaries() []RoundSummary {
	if t == nil {
		return nil
	}
	var out []RoundSummary
	for _, sn := range t.snapshots(false) {
		if sn.cat == CatRound {
			out = append(out, summaryFromSnapshot(sn))
		}
	}
	return out
}
