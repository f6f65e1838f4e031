package core

import (
	"fmt"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
)

// This file lets alternative engines (internal/prflow, the portfolio's
// core-reduced runs) persist and read back the same on-DFS state the
// FFMR driver produces: canonical vertex records under a round-NNNNN
// prefix plus an AugmentedEdges pending-deltas file. Keeping the state
// shape identical is what makes Validate, dynamic.Solve/Apply snapshots
// and the service's query views engine-agnostic.

// WriteEngineState persists a per-edge flow assignment as the final
// state of a completed run: partition-aligned vertex record files under
// roundPrefix(opts.PathPrefix, rounds) and an empty pending-deltas file
// at PendingDeltasFile(opts, rounds) — exactly what the FFMR driver
// leaves behind after a quiescent-termination run. flows[i] is the flow on
// in.Edges[i] in canonical (U -> V) orientation.
//
// opts must have defaults resolved (Run resolves them before engine
// dispatch): Reducers fixes the partition alignment of the output files,
// which schimmy rounds and the dynamic-update pipeline rely on. Records
// carry the usual source/sink excess-path seeds and (for FF5) zeroed
// sent-flag arrays, so a later warm restart can re-augment from them.
func WriteEngineState(fs *dfs.FS, in *graph.Input, opts Options, rounds int, flows []int64) error {
	if opts.Reducers <= 0 {
		return fmt.Errorf("core: WriteEngineState needs resolved options (Reducers=%d)", opts.Reducers)
	}
	if len(flows) != len(in.Edges) {
		return fmt.Errorf("core: WriteEngineState: %d flows for %d edges", len(flows), len(in.Edges))
	}
	feat := opts.Variant.features()
	start, edges := graph.HalfEdges(in, flows)

	// One writer per partition; vertices appended in key order so each
	// file is sorted like a reducer's output. A vertex no edge touches
	// has no record. The seed paths and the zeroed sent flags are only
	// read, so every record shares them.
	seed := []graph.ExcessPath{{}}
	var unsent []uint64
	if feat.sentTracking {
		maxDegree := 0
		for u := 0; u < in.NumVertices; u++ {
			maxDegree = max(maxDegree, start[u+1]-start[u])
		}
		unsent = make([]uint64, maxDegree)
	}
	writers := make([]dfs.RecordWriter, opts.Reducers)
	var key, value []byte
	for u := 0; u < in.NumVertices; u++ {
		eu := edges[start[u]:start[u+1]]
		if len(eu) == 0 {
			continue
		}
		val := graph.VertexValue{Eu: eu}
		if graph.VertexID(u) == in.Source {
			val.Su = seed
		}
		if graph.VertexID(u) == in.Sink && !opts.DisableBidirectional {
			val.Tu = seed
		}
		if feat.sentTracking {
			val.SentS, val.SentT = unsent[:len(eu)], unsent[:len(eu)]
		}
		key = graph.AppendKey(key[:0], graph.VertexID(u))
		value = graph.AppendValue(value[:0], &val)
		writers[mapreduce.Partition(key, opts.Reducers)].Append(key, value)
	}

	prefix := roundPrefix(opts.PathPrefix, rounds)
	for p := range writers {
		name := fmt.Sprintf("%spart-%05d", prefix, p)
		if err := fs.WriteFile(name, writers[p].Bytes()); err != nil {
			return err
		}
	}
	return fs.WriteFile(deltaName(opts.PathPrefix, rounds+1), EncodeDeltas(nil))
}

// ExtractFlows reads a completed run's persisted residual state and
// returns the canonical per-edge flow assignment, applying the pending
// AugmentedEdges file first if one exists (it is empty after a quiescent
// run). It verifies that every input edge appears with exactly two
// skew-symmetric halves, so the result is trustworthy enough to feed
// prep.Uncontract or CheckAssignment.
func ExtractFlows(fs *dfs.FS, in *graph.Input, opts Options, res *Result) ([]int64, error) {
	opts.applyDefaults(1)
	verts, err := ReadVertices(fs, roundPrefix(opts.PathPrefix, res.Rounds))
	if err != nil {
		return nil, fmt.Errorf("core: extract flows: %w", err)
	}
	if len(verts) == 0 && len(in.Edges) > 0 {
		return nil, fmt.Errorf("core: extract flows: no vertex records under %q (run with KeepIntermediate)",
			roundPrefix(opts.PathPrefix, res.Rounds))
	}
	deltaFile := deltaName(opts.PathPrefix, res.Rounds+1)
	if fs.Exists(deltaFile) {
		data, err := fs.ReadFile(deltaFile)
		if err != nil {
			return nil, err
		}
		table, err := DecodeDeltas(data)
		if err != nil {
			return nil, err
		}
		deltas := newDeltaSet(table)
		for _, v := range verts {
			updateVertex(v, deltas)
		}
	}

	flows := make([]int64, len(in.Edges))
	halves := make([]int, len(in.Edges))
	for _, v := range verts {
		for i := range v.Eu {
			e := &v.Eu[i]
			if int(e.ID) >= len(flows) {
				return nil, fmt.Errorf("core: extract flows: edge %d out of range (m=%d)", e.ID, len(flows))
			}
			canonical := e.Flow
			if !e.Fwd {
				canonical = -canonical
			}
			if halves[e.ID] > 0 && flows[e.ID] != canonical {
				return nil, fmt.Errorf("core: extract flows: edge %d violates skew symmetry: %d vs %d",
					e.ID, flows[e.ID], canonical)
			}
			flows[e.ID] = canonical
			halves[e.ID]++
		}
	}
	for id, n := range halves {
		if n != 2 {
			return nil, fmt.Errorf("core: extract flows: edge %d has %d halves", id, n)
		}
	}
	return flows, nil
}
