package core

import (
	"fmt"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/spill"
)

// This file writes vertex records from the host. The FFMR driver writes
// its round #0 with WriteEngineState and zero flows, and alternative
// engines (internal/prflow, the portfolio's core-reduced runs) persist
// their final state with it: canonical vertex records under a round-NNNNN
// prefix plus an AugmentedEdges pending-deltas file. Keeping the state
// shape identical is what makes Validate, dynamic.Solve/Apply snapshots
// and the service's query views engine-agnostic.

// partitions holds one record writer per reduce partition. Records added
// in key order leave each partition sorted like a reducer's output.
type partitions []dfs.RecordWriter

func (p partitions) add(key, value []byte) {
	p[mapreduce.Partition(key, len(p))].Append(key, value)
}

// write stores partition i as prefix+"part-%05d" and returns the bytes
// written.
func (p partitions) write(fs *dfs.FS, prefix string) (int64, error) {
	var n int64
	for i := range p {
		data := p[i].Bytes()
		if err := fs.WriteFile(fmt.Sprintf("%spart-%05d", prefix, i), data); err != nil {
			return n, err
		}
		n += int64(len(data))
	}
	return n, nil
}

// WriteEngineState persists a per-edge flow assignment as the state after
// round rounds: partition-aligned vertex record files under
// roundPrefix(opts.PathPrefix, rounds) and an empty pending-deltas file
// at PendingDeltasFile(opts, rounds) — exactly what the FFMR driver
// leaves behind after a quiescent-termination run, and, with rounds 0
// and nil flows, the records the driver starts from. flows[i] is the flow
// on in.Edges[i] in canonical (U -> V) orientation; nil means no flow.
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
	if flows != nil && len(flows) != len(in.Edges) {
		return fmt.Errorf("core: WriteEngineState: %d flows for %d edges", len(flows), len(in.Edges))
	}
	feat := opts.Variant.features()
	start, edges := graph.HalfEdges(in, flows)

	// Vertices are added in key order. A vertex no edge touches has no
	// record. The seed paths and the zeroed sent flags are only read, so
	// every record shares them.
	seed := []graph.ExcessPath{{}}
	var unsent []uint64
	if feat.sentTracking {
		maxDegree := 0
		for u := 0; u < in.NumVertices; u++ {
			maxDegree = max(maxDegree, start[u+1]-start[u])
		}
		unsent = make([]uint64, maxDegree)
	}
	record := func(u int) (graph.VertexValue, bool) {
		eu := edges[start[u]:start[u+1]]
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
		return val, len(eu) > 0
	}
	// The partitions are sized first, so each buffer is allocated once.
	parts := make(partitions, opts.Reducers)
	sizes := make([]int, len(parts))
	var key, value []byte
	for u := 0; u < in.NumVertices; u++ {
		if val, ok := record(u); ok {
			key = graph.AppendKey(key[:0], graph.VertexID(u))
			sizes[mapreduce.Partition(key, len(parts))] += spill.FrameLen(len(key), graph.ValueSize(&val))
		}
	}
	for p, n := range sizes {
		parts[p].Grow(n)
	}
	for u := 0; u < in.NumVertices; u++ {
		if val, ok := record(u); ok {
			key = graph.AppendKey(key[:0], graph.VertexID(u))
			value = graph.AppendValue(value[:0], &val)
			parts.add(key, value)
		}
	}

	if _, err := parts.write(fs, roundPrefix(opts.PathPrefix, rounds)); err != nil {
		return err
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
