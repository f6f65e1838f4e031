package core

import (
	"fmt"
	"slices"

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
	start, arcs := graph.ArcIndex(in)
	maxDegree := 0
	for u := 0; u < in.NumVertices; u++ {
		maxDegree = max(maxDegree, int(start[u+1]-start[u]))
	}
	// One record at a time is built in eu, in the order keys sorts its
	// arcs into: by (to, arc), which is (to, edge ID) since a vertex holds
	// one arc of an edge. Under FF5 the zeroed sent flags share keys'
	// allocation; they are only read, so every record shares them.
	n := maxDegree
	if feat.sentTracking {
		n *= 2
	}
	buf := make([]uint64, n)
	keys, unsent := buf[:maxDegree], buf[maxDegree:]
	eu := make([]graph.Edge, maxDegree)
	seed := []graph.ExcessPath{{}}

	// record returns vertex u's record and whether u has one: a vertex no
	// edge touches has none. The records added to the partitions must be
	// sorted; sizing one needs only its halves.
	record := func(u int, sorted bool) (graph.VertexValue, bool) {
		run := arcs[start[u]:start[u+1]]
		keys := keys[:len(run)]
		for j, a := range run {
			to := in.Edges[a>>1].V
			if a&1 == 1 {
				to = in.Edges[a>>1].U
			}
			keys[j] = uint64(to)<<32 | uint64(a)
		}
		if sorted {
			slices.Sort(keys)
		}
		val := graph.VertexValue{Eu: eu[:len(run)]}
		for j, k := range keys {
			val.Eu[j] = halfEdge(in, flows, int(uint32(k)))
		}
		if graph.VertexID(u) == in.Source {
			val.Su = seed
		}
		if graph.VertexID(u) == in.Sink && !opts.DisableBidirectional {
			val.Tu = seed
		}
		if feat.sentTracking {
			val.SentS, val.SentT = unsent[:len(run)], unsent[:len(run)]
		}
		return val, len(run) > 0
	}
	// The partitions are sized first, so each buffer is allocated once.
	parts := make(partitions, opts.Reducers)
	sizes := make([]int, len(parts))
	var key, value []byte
	for u := 0; u < in.NumVertices; u++ {
		if val, ok := record(u, false); ok {
			key = graph.AppendKey(key[:0], graph.VertexID(u))
			sizes[mapreduce.Partition(key, len(parts))] += spill.FrameLen(len(key), graph.ValueSize(&val))
		}
	}
	for p, n := range sizes {
		parts[p].Grow(n)
	}
	for u := 0; u < in.NumVertices; u++ {
		if val, ok := record(u, true); ok {
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

// halfEdge is arc a of in's arc index as the vertex record holding it
// stores it. flows is as for WriteEngineState.
func halfEdge(in *graph.Input, flows []int64, a int) graph.Edge {
	i := a >> 1
	e := &in.Edges[i]
	rev := e.Cap
	if e.Directed {
		rev = 0
	}
	var f int64
	if flows != nil {
		f = flows[i]
	}
	if a&1 == 0 {
		return graph.Edge{To: e.V, ID: graph.EdgeID(i), Flow: f, Cap: e.Cap, RevCap: rev, Fwd: true}
	}
	return graph.Edge{To: e.U, ID: graph.EdgeID(i), Flow: -f, Cap: rev, RevCap: e.Cap}
}
