package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
)

// This file implements round #0 of the paper's driver: "we use the first
// round of MR to convert the input graph into our graph data structure,
// make the edges bi-directional and initialize the flow and capacity of
// each edge" (Section III-A). The raw input is an edge list stored in
// the DFS; round #0 is an ordinary MapReduce job whose mappers emit a
// half-edge to each endpoint and whose reducers assemble adjacency lists
// and seed the source and sink excess paths.

// encodeInputEdge serializes one raw edge-list record value.
func encodeInputEdge(dst []byte, e *graph.InputEdge) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.U))
	dst = binary.AppendUvarint(dst, uint64(e.V))
	dst = binary.AppendVarint(dst, e.Cap)
	if e.Directed {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

func decodeInputEdge(data []byte) (graph.InputEdge, error) {
	var e graph.InputEdge
	off := 0
	u, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return e, fmt.Errorf("core: corrupt input edge")
	}
	off += n
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return e, fmt.Errorf("core: corrupt input edge")
	}
	off += n
	c, n := binary.Varint(data[off:])
	if n <= 0 {
		return e, fmt.Errorf("core: corrupt input edge")
	}
	off += n
	if off >= len(data) {
		return e, fmt.Errorf("core: corrupt input edge")
	}
	e.U, e.V, e.Cap, e.Directed = graph.VertexID(u), graph.VertexID(v), c, data[off] != 0
	return e, nil
}

// WriteInput stores a raw edge list in the DFS as numbered chunk files
// under prefix+"input/", returning the file names. The edge index within
// the whole list is the record key and becomes the edge's EdgeID, so IDs
// are stable regardless of chunking.
func WriteInput(fs *dfs.FS, prefix string, in *graph.Input, chunks int) ([]string, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks > len(in.Edges) && len(in.Edges) > 0 {
		chunks = len(in.Edges)
	}
	per := (len(in.Edges) + chunks - 1) / chunks
	var names []string
	var buf []byte
	for c := 0; c < chunks; c++ {
		lo, hi := c*per, (c+1)*per
		if lo >= len(in.Edges) && c > 0 {
			break
		}
		if hi > len(in.Edges) {
			hi = len(in.Edges)
		}
		var w dfs.RecordWriter
		for i := lo; i < hi; i++ {
			var key [4]byte
			binary.BigEndian.PutUint32(key[:], uint32(i))
			buf = encodeInputEdge(buf[:0], &in.Edges[i])
			w.Append(key[:], buf)
		}
		name := fmt.Sprintf("%sinput/edges-%05d", prefix, c)
		if err := fs.WriteFile(name, w.Bytes()); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// convertMapper emits, for each raw edge record, one half-edge fragment
// to each endpoint. The record key (the edge's position in the input
// list) becomes the EdgeID and the U->V orientation is canonical. Both
// fragments are built and encoded in buffers the mapper keeps for the
// whole task.
type convertMapper struct {
	frag     graph.VertexValue
	key, buf []byte
}

func newConvertMapper() mapreduce.Mapper {
	return &convertMapper{frag: graph.VertexValue{Eu: make([]graph.Edge, 1)}}
}

func (m *convertMapper) emit(ctx *mapreduce.TaskContext, to graph.VertexID, half graph.Edge) {
	m.frag.Eu[0] = half
	m.key = graph.AppendKey(m.key[:0], to)
	m.buf = graph.AppendValue(m.buf[:0], &m.frag)
	ctx.Emit(m.key, m.buf)
}

func (m *convertMapper) Map(ctx *mapreduce.TaskContext, key, value []byte) error {
	idx, err := graph.DecodeKey(key)
	if err != nil {
		return err
	}
	e, err := decodeInputEdge(value)
	if err != nil {
		return err
	}
	revCap := e.Cap
	if e.Directed {
		revCap = 0
	}
	id := graph.EdgeID(idx)
	m.emit(ctx, e.U, graph.Edge{To: e.V, ID: id, Cap: e.Cap, RevCap: revCap, Fwd: true})
	m.emit(ctx, e.V, graph.Edge{To: e.U, ID: id, Cap: revCap, RevCap: e.Cap, Fwd: false})
	return nil
}

// convertReducer assembles each vertex's adjacency list and seeds the
// excess paths: the source starts with one (empty) source excess path and
// the sink with one (empty) sink excess path, the starting points of the
// bi-directional search. out, frag and buf are reused from vertex to
// vertex.
type convertReducer struct {
	source, sink  graph.VertexID
	bidirectional bool
	sentTracking  bool

	out, frag graph.VertexValue
	buf       []byte
}

func (r *convertReducer) Reduce(ctx *mapreduce.TaskContext, key, master []byte, values *mapreduce.Values) error {
	u, err := graph.DecodeKey(key)
	if err != nil {
		return err
	}
	out := &r.out
	out.Reset()
	for {
		vb := values.Next()
		if vb == nil {
			break
		}
		if err := graph.DecodeValueInto(vb, &r.frag); err != nil {
			return err
		}
		out.Eu = append(out.Eu, r.frag.Eu...)
	}
	slices.SortFunc(out.Eu, func(a, b graph.Edge) int {
		if a.To != b.To {
			return cmp.Compare(a.To, b.To)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if u == r.source {
		out.Su, _ = graph.NextSlot(out.Su)
	}
	if u == r.sink && r.bidirectional {
		out.Tu, _ = graph.NextSlot(out.Tu)
	}
	if r.sentTracking {
		// Zeroed sent flags, one per edge.
		out.SentS = append(out.SentS, make([]uint64, len(out.Eu))...)
		out.SentT = append(out.SentT, make([]uint64, len(out.Eu))...)
	}
	ctx.Inc("vertices", 1)
	ctx.Inc("half edges", int64(len(out.Eu)))
	r.buf = graph.AppendValue(r.buf[:0], out)
	ctx.Emit(key, r.buf)
	return nil
}
