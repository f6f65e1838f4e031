// Package graph defines the flow-network data model used throughout the
// FFMR system: vertices identified by dense integer IDs, half-edges stored
// from each endpoint's perspective, and the excess-path structures of
// Halim, Yap and Wu (ICDCS 2011), Section III-C.
//
// The on-the-wire representation matches the paper's record model: a
// MapReduce record per vertex u with key = u and value = <Su, Tu, Eu>,
// where Su is the list of source excess paths (paths from the source s to
// u), Tu is the list of sink excess paths (paths from u to the sink t),
// and Eu is the adjacency list of u. Each edge is the tuple
// <ev, eid, ef, ec>: neighbour ID, edge ID, flow and capacity.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// VertexID identifies a vertex. IDs are dense, starting at 0.
type VertexID uint32

// EdgeID identifies a logical edge. The two half-edges stored at the two
// endpoints of an edge share one EdgeID; the half marked Fwd is the
// canonical orientation used when broadcasting flow deltas.
type EdgeID uint32

// CapInf is the "infinite" capacity used for the edges that connect the
// super source and super sink to their tap vertices (paper Section V-A1).
// It is large enough that it can never be saturated by realistic flows but
// small enough that summing many of them cannot overflow int64.
const CapInf = int64(math.MaxInt64 / 1024)

// Edge is a half-edge stored at one endpoint. Flow and Cap are from this
// endpoint's perspective: Flow is the flow sent from the owning vertex to
// To, and Cap is the capacity in that direction. Skew symmetry holds
// between the two halves: the flow at the other endpoint is -Flow.
//
// The residual capacity in the owning-vertex -> To direction is Cap-Flow.
// A directed input edge u->v with capacity c is stored as Cap=c at u and
// Cap=0 at v, which yields the classical residual-graph semantics.
type Edge struct {
	To   VertexID
	ID   EdgeID
	Flow int64
	Cap  int64
	// RevCap is the capacity in the To -> owning-vertex direction (the
	// Cap stored on the mirror half-edge). The paper's experiments use
	// undirected unit-capacity edges where RevCap == Cap; carrying the
	// mirror capacity generalizes the MAP function's sink-path extension
	// test (-ef < ec, Fig. 3 line 14) to directed edges.
	RevCap int64
	// Fwd marks whether this half is the canonical orientation of ID.
	// Flow deltas broadcast through the AugmentedEdges table are expressed
	// in the canonical orientation; a half with Fwd=false applies -delta.
	Fwd bool
}

// Residual returns the residual capacity from the owning vertex to e.To.
func (e *Edge) Residual() int64 { return e.Cap - e.Flow }

// RevResidual returns the residual capacity from e.To back to the owning
// vertex: RevCap - (-Flow). This is the Fig. 3 line 14 test "-ef < ec"
// generalized to asymmetric capacities.
func (e *Edge) RevResidual() int64 { return e.RevCap + e.Flow }

// ApplyDelta applies a canonical-orientation flow delta to this half-edge.
func (e *Edge) ApplyDelta(delta int64) {
	if e.Fwd {
		e.Flow += delta
	} else {
		e.Flow -= delta
	}
}

// PathEdge is one hop of an excess path. From/To give the traversal
// direction; Flow and Cap are in the traversal direction, so the hop's
// residual capacity is Cap-Flow. Fwd records whether the traversal
// direction is the canonical orientation of ID, which lets mappers apply
// broadcast deltas to the path copy and lets the accumulator translate an
// accepted path into canonical-orientation deltas.
type PathEdge struct {
	ID   EdgeID
	From VertexID
	To   VertexID
	Flow int64
	Cap  int64
	Fwd  bool
}

// Residual returns the hop's residual capacity in the traversal direction.
func (pe *PathEdge) Residual() int64 { return pe.Cap - pe.Flow }

// ApplyDelta applies a canonical-orientation delta to this hop's flow.
func (pe *PathEdge) ApplyDelta(delta int64) {
	if pe.Fwd {
		pe.Flow += delta
	} else {
		pe.Flow -= delta
	}
}

// ExcessPath is a simple path in the residual network. For a source
// excess path of vertex u the hops run s -> ... -> u in order; for a sink
// excess path they run u -> ... -> t. An empty path is valid only at the
// source (as the seed source path) or sink (as the seed sink path).
type ExcessPath struct {
	Edges []PathEdge
}

// Len returns the number of hops.
func (p *ExcessPath) Len() int { return len(p.Edges) }

// Residual returns the bottleneck residual capacity of the path,
// accounting for an edge appearing multiple times (the same residual
// capacity must cover every use). An empty path has infinite residual.
func (p *ExcessPath) Residual() int64 {
	if len(p.Edges) == 0 {
		return CapInf
	}
	// Count uses per edge+direction so repeated hops are charged together.
	r := int64(math.MaxInt64)
	for i := range p.Edges {
		uses := int64(1)
		for j := range p.Edges {
			if j != i && p.Edges[j].ID == p.Edges[i].ID && p.Edges[j].Fwd == p.Edges[i].Fwd {
				uses++
			}
		}
		if v := p.Edges[i].Residual() / uses; v < r {
			r = v
		}
	}
	return r
}

// Saturated reports whether any hop of the path has no residual capacity.
func (p *ExcessPath) Saturated() bool {
	for i := range p.Edges {
		if p.Edges[i].Residual() <= 0 {
			return true
		}
	}
	return false
}

// Contains reports whether v appears as an endpoint of any hop.
func (p *ExcessPath) Contains(v VertexID) bool {
	for i := range p.Edges {
		if p.Edges[i].From == v || p.Edges[i].To == v {
			return true
		}
	}
	return false
}

// Head returns the first vertex of the path (s for source paths).
// It must not be called on an empty path.
func (p *ExcessPath) Head() VertexID { return p.Edges[0].From }

// Tail returns the last vertex of the path (t for sink paths).
// It must not be called on an empty path.
func (p *ExcessPath) Tail() VertexID { return p.Edges[len(p.Edges)-1].To }

// The Set methods build a path in p, a slot the caller owns: p's Edges
// array is overwritten, and kept when it is large enough, so a slot that
// is filled once per record stops allocating (FF4). On an empty slot they
// allocate the copy. The arguments must not alias p.

// Set makes p a copy of src.
func (p *ExcessPath) Set(src *ExcessPath) {
	p.Edges = append(p.Edges[:0], src.Edges...)
}

// SetExtendSource makes p the source path src extended by one hop along e
// from vertex u (src's tail) to e.To.
func (p *ExcessPath) SetExtendSource(src *ExcessPath, u VertexID, e *Edge) {
	p.Edges = slices.Grow(p.Edges[:0], len(src.Edges)+1)
	p.Edges = append(append(p.Edges, src.Edges...), PathEdge{
		ID: e.ID, From: u, To: e.To, Flow: e.Flow, Cap: e.Cap, Fwd: e.Fwd,
	})
}

// SetExtendSink makes p the sink path src prefixed by one hop from e.To to
// u (src's head), traversed against e's perspective. e is the half-edge
// stored at u pointing to e.To; the new hop runs e.To -> u, so its flow
// and capacity are the mirrored values (flow -e.Flow, capacity e.RevCap).
func (p *ExcessPath) SetExtendSink(src *ExcessPath, u VertexID, e *Edge) {
	p.Edges = slices.Grow(p.Edges[:0], len(src.Edges)+1)
	p.Edges = append(append(p.Edges, PathEdge{
		ID: e.ID, From: e.To, To: u, Flow: -e.Flow, Cap: e.RevCap, Fwd: !e.Fwd,
	}), src.Edges...)
}

// SetConcat makes p the candidate augmenting path (s -> t) that joins a
// source path (s -> u) with a sink path (u -> t). The caller guarantees
// both paths belong to the same vertex u.
func (p *ExcessPath) SetConcat(src, snk *ExcessPath) {
	p.Edges = slices.Grow(p.Edges[:0], len(src.Edges)+len(snk.Edges))
	p.Edges = append(append(p.Edges, src.Edges...), snk.Edges...)
}

// NextSlot grows ps by one path and returns it with the new last slot,
// emptied. A slot between len(ps) and cap(ps) comes back with the Edges
// array it held before, so a path list that is truncated and refilled
// (Reset, then NextSlot and a Set method per path) reuses both levels of
// storage. Every slot keeps exclusive ownership of its array.
func NextSlot(ps []ExcessPath) ([]ExcessPath, *ExcessPath) {
	if len(ps) < cap(ps) {
		ps = ps[:len(ps)+1]
	} else {
		ps = append(ps, ExcessPath{})
	}
	slot := &ps[len(ps)-1]
	slot.Edges = slot.Edges[:0]
	return ps, slot
}

// Signature returns a stable hash of the path's hop sequence (edge IDs and
// directions). FF5 uses signatures as the "already sent" bookkeeping token
// and reducers use them for deterministic ordering and deduplication.
func (p *ExcessPath) Signature() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := range p.Edges {
		x := uint64(p.Edges[i].ID)<<1 | 1
		if !p.Edges[i].Fwd {
			x = uint64(p.Edges[i].ID) << 1
		}
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// Clone returns a deep copy of the path.
func (p *ExcessPath) Clone() ExcessPath {
	edges := make([]PathEdge, len(p.Edges))
	copy(edges, p.Edges)
	return ExcessPath{Edges: edges}
}

// String renders the path as "v0->v1->...->vn" for debugging.
func (p *ExcessPath) String() string {
	if len(p.Edges) == 0 {
		return "<empty>"
	}
	s := fmt.Sprintf("%d", p.Edges[0].From)
	for i := range p.Edges {
		s += fmt.Sprintf("->%d", p.Edges[i].To)
	}
	return s
}

// VertexValue is the value part of a vertex record: <Su, Tu, Eu> from the
// paper, plus the FF5 bookkeeping arrays. A record with no edges is a
// vertex fragment (an intermediate record emitted to another vertex); a
// record with edges is the master vertex record.
type VertexValue struct {
	Su []ExcessPath // source excess paths: s -> u
	Tu []ExcessPath // sink excess paths: u -> t
	Eu []Edge       // adjacency list

	// SentS[i] / SentT[i] hold the signature of the source/sink excess
	// path most recently extended along Eu[i] that is still believed
	// unsaturated; 0 means nothing outstanding. Used only by FF5 to
	// suppress redundant re-sends (paper Section IV-D, second strategy).
	SentS []uint64
	SentT []uint64
}

// IsMaster reports whether the record is a master vertex record.
func (v *VertexValue) IsMaster() bool { return len(v.Eu) > 0 }

// Reset clears the value for reuse, retaining allocated capacity. This is
// the FF4 "eliminate object instantiations" hook: decoding into a Reset
// value reuses its backing arrays.
func (v *VertexValue) Reset() {
	v.Su = v.Su[:0]
	v.Tu = v.Tu[:0]
	v.Eu = v.Eu[:0]
	v.SentS = v.SentS[:0]
	v.SentT = v.SentT[:0]
}

// InputEdge is one edge of a raw input graph, before round #0 writes the
// edge list as vertex records (HalfEdges). Undirected edges get capacity
// Cap in both directions (the paper's round #0 "makes the edges
// bi-directional"); directed edges get Cap forward and 0 backward.
type InputEdge struct {
	U, V     VertexID
	Cap      int64
	Directed bool
}

// Input is a raw graph: an edge list plus the designated source and sink.
type Input struct {
	NumVertices int
	Edges       []InputEdge
	Source      VertexID
	Sink        VertexID
}

// Validate checks structural sanity of the input.
func (in *Input) Validate() error {
	if in.NumVertices <= 0 {
		return fmt.Errorf("graph: input has %d vertices", in.NumVertices)
	}
	if int(in.Source) >= in.NumVertices {
		return fmt.Errorf("graph: source %d out of range (n=%d)", in.Source, in.NumVertices)
	}
	if int(in.Sink) >= in.NumVertices {
		return fmt.Errorf("graph: sink %d out of range (n=%d)", in.Sink, in.NumVertices)
	}
	if in.Source == in.Sink {
		return fmt.Errorf("graph: source and sink are both vertex %d", in.Source)
	}
	for i := range in.Edges {
		e := &in.Edges[i]
		if int(e.U) >= in.NumVertices || int(e.V) >= in.NumVertices {
			return fmt.Errorf("graph: edge %d (%d,%d) out of range (n=%d)", i, e.U, e.V, in.NumVertices)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop at %d", i, e.U)
		}
		if e.Cap < 0 {
			return fmt.Errorf("graph: edge %d has negative capacity %d", i, e.Cap)
		}
		if e.Cap > CapInf {
			return fmt.Errorf("graph: edge %d has capacity %d, above CapInf (%d)", i, e.Cap, CapInf)
		}
	}
	return nil
}

// Adjacency returns every vertex's neighbours in the undirected graph
// underlying in, sorted and distinct: capacity and direction are
// ignored and parallel edges name a neighbour once. The MR-BFS baseline
// (core.RunBFS) writes its round #0 records from it. in must be valid.
func Adjacency(in *Input) [][]VertexID {
	deg := make([]int, in.NumVertices)
	for i := range in.Edges {
		deg[in.Edges[i].U]++
		deg[in.Edges[i].V]++
	}
	adj := make([][]VertexID, in.NumVertices)
	flat := make([]VertexID, 2*len(in.Edges))
	for v, d := range deg {
		adj[v], flat = flat[:0:d], flat[d:]
	}
	for i := range in.Edges {
		e := &in.Edges[i]
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for v, ns := range adj {
		slices.Sort(ns)
		adj[v] = slices.Compact(ns)
	}
	return adj
}

// ArcIndex groups both arcs of every edge of in by tail: the arcs
// leaving u are arcs[start[u]:start[u+1]], in ascending edge-ID order,
// arc 2i being in.Edges[i]'s U -> V direction and arc 2i+1 its V -> U
// direction. in must be valid.
func ArcIndex(in *Input) (start, arcs []int32) {
	// Counting sort by tail: after the running sums start[u] is the end
	// of u's run, and placing each arc by decrementing it, edges in
	// reverse order, leaves start[u] at the run's beginning and the run
	// ascending.
	start = make([]int32, in.NumVertices+1)
	for i := range in.Edges {
		start[in.Edges[i].U]++
		start[in.Edges[i].V]++
	}
	for u := 1; u < len(start); u++ {
		start[u] += start[u-1]
	}
	arcs = make([]int32, 2*len(in.Edges))
	for i := len(in.Edges) - 1; i >= 0; i-- {
		e := &in.Edges[i]
		start[e.U]--
		arcs[start[e.U]] = int32(2 * i)
		start[e.V]--
		arcs[start[e.V]] = int32(2*i + 1)
	}
	return start, arcs
}

// HalfEdges returns both halves of every edge of in, grouped by owning
// vertex in one backing array: the halves stored at u are
// edges[start[u]:start[u+1]], sorted by (To, ID) as a vertex record
// keeps them. flows[i] is the flow on in.Edges[i] in canonical (U -> V)
// orientation; nil means no flow. in must be valid.
func HalfEdges(in *Input, flows []int64) (start []int, edges []Edge) {
	start = make([]int, in.NumVertices+1)
	for i := range in.Edges {
		start[in.Edges[i].U+1]++
		start[in.Edges[i].V+1]++
	}
	for u := 1; u < len(start); u++ {
		start[u] += start[u-1]
	}
	next := slices.Clone(start)
	edges = make([]Edge, 2*len(in.Edges))
	for i := range in.Edges {
		e := &in.Edges[i]
		rev := e.Cap
		if e.Directed {
			rev = 0
		}
		var f int64
		if flows != nil {
			f = flows[i]
		}
		id := EdgeID(i)
		edges[next[e.U]] = Edge{To: e.V, ID: id, Flow: f, Cap: e.Cap, RevCap: rev, Fwd: true}
		edges[next[e.V]] = Edge{To: e.U, ID: id, Flow: -f, Cap: rev, RevCap: e.Cap}
		next[e.U]++
		next[e.V]++
	}
	for u := 0; u < in.NumVertices; u++ {
		slices.SortFunc(edges[start[u]:start[u+1]], func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.ID, b.ID))
		})
	}
	return start, edges
}

// HopDistances runs a breadth-first search over adj from src and returns
// every vertex's hop distance, -1 for vertices it does not reach.
func HopDistances(adj [][]VertexID, src VertexID) []int32 {
	dist := make([]int32, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(make([]VertexID, 0, len(adj)), src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
