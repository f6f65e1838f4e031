package dynamic

import (
	"fmt"

	"ffmr/internal/core"
	"ffmr/internal/graph"
)

// This file is the snapshot read path: a View materializes a completed
// run's persisted residual network into an immutable, query-optimized
// form — per-edge committed flow and residual capacities, the min-cut
// side of every vertex, and the cut itself — so flow-value, min-cut-
// membership and residual-capacity queries are O(1) array lookups with
// no DFS reads. The flow service keeps one View resident per snapshot
// generation and answers queries against it while new generations are
// being solved; a View never changes after BuildView returns, so readers
// need no locks.

// View is an immutable query view over one Snapshot. All exported
// fields are read-only after BuildView.
type View struct {
	// Gen is the snapshot's generation (0 for the base solve, +1 per
	// applied batch).
	Gen int
	// FlowValue is the snapshot's maximum-flow value.
	FlowValue int64
	// NumVertices, Source and Sink mirror the snapshot's input graph.
	NumVertices int
	Source      graph.VertexID
	Sink        graph.VertexID

	// edges[id] is the query record for EdgeID id (== index in the
	// input's edge list; dynamic updates never renumber).
	edges []EdgeView
	// sourceSide[v] reports whether v is reachable from the source in
	// the residual network — the source side of a minimum cut.
	sourceSide []bool
	// cut lists the edges crossing the minimum cut in the source→sink
	// direction; cutCap is their total crossing capacity, which the
	// max-flow min-cut theorem makes equal to FlowValue.
	cut    []graph.EdgeID
	cutCap int64
}

// EdgeView is one edge's committed flow and residual capacities.
type EdgeView struct {
	U, V     graph.VertexID
	Cap      int64
	Directed bool
	// Flow is the committed flow in canonical (U→V) orientation;
	// negative means net flow V→U (possible on undirected edges).
	Flow int64
	// ResidualFwd is the residual capacity U→V; ResidualRev is V→U. For
	// a directed edge ResidualRev is the cancelable flow; for an
	// undirected edge it is Cap+Flow.
	ResidualFwd int64
	ResidualRev int64
}

// BuildView reads the snapshot's persisted records (plus its pending
// delta table, non-empty only when the run stopped under TerminationPaper
// in a round that accepted paths; see Snapshot) and materializes
// the query view. The snapshot must have been produced with
// KeepIntermediate, which Solve forces.
func BuildView(fsys interface {
	List(prefix string) []string
	ReadFile(name string) ([]byte, error)
}, snap *Snapshot) (*View, error) {
	flows, err := readFlows(fsys, snap.StatePrefix)
	if err != nil {
		return nil, err
	}
	pendingData, err := fsys.ReadFile(snap.PendingDeltas)
	if err != nil {
		return nil, fmt.Errorf("dynamic: view: pending deltas: %w", err)
	}
	pending, err := core.DecodeDeltas(pendingData)
	if err != nil {
		return nil, fmt.Errorf("dynamic: view: pending deltas: %w", err)
	}
	for id, d := range pending {
		flows[id] += d
	}

	in := snap.Input
	v := &View{
		Gen:         snap.Gen,
		FlowValue:   snap.Result.MaxFlow,
		NumVertices: in.NumVertices,
		Source:      in.Source,
		Sink:        in.Sink,
		edges:       make([]EdgeView, len(in.Edges)),
	}
	for i := range in.Edges {
		e := &in.Edges[i]
		f := flows[graph.EdgeID(i)]
		ev := EdgeView{U: e.U, V: e.V, Cap: e.Cap, Directed: e.Directed, Flow: f}
		ev.ResidualFwd = e.Cap - f
		if e.Directed {
			ev.ResidualRev = f
		} else {
			ev.ResidualRev = e.Cap + f
		}
		v.edges[i] = ev
	}
	v.computeCut()
	return v, nil
}

// computeCut runs the textbook min-cut extraction: BFS from the source
// over positive-residual arcs; the reachable set is the cut's source
// side, and every edge crossing outward with positive capacity in the
// crossing direction is a cut edge.
func (v *View) computeCut() {
	type arc struct {
		to   graph.VertexID
		next int32
	}
	head := make([]int32, v.NumVertices)
	for i := range head {
		head[i] = -1
	}
	var arcs []arc
	add := func(u, w graph.VertexID) {
		arcs = append(arcs, arc{to: w, next: head[u]})
		head[u] = int32(len(arcs) - 1)
	}
	for i := range v.edges {
		e := &v.edges[i]
		if e.ResidualFwd > 0 {
			add(e.U, e.V)
		}
		if e.ResidualRev > 0 {
			add(e.V, e.U)
		}
	}
	v.sourceSide = make([]bool, v.NumVertices)
	v.sourceSide[v.Source] = true
	queue := []graph.VertexID{v.Source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for ai := head[u]; ai >= 0; ai = arcs[ai].next {
			if w := arcs[ai].to; !v.sourceSide[w] {
				v.sourceSide[w] = true
				queue = append(queue, w)
			}
		}
	}
	for i := range v.edges {
		e := &v.edges[i]
		us, vs := v.sourceSide[e.U], v.sourceSide[e.V]
		switch {
		case us && !vs:
			// Crossing U→V: capacity Cap in the crossing direction.
			if e.Cap > 0 {
				v.cut = append(v.cut, graph.EdgeID(i))
				v.cutCap += e.Cap
			}
		case vs && !us && !e.Directed:
			// An undirected edge crossing V→U carries Cap that way too; a
			// directed one carries nothing backward.
			if e.Cap > 0 {
				v.cut = append(v.cut, graph.EdgeID(i))
				v.cutCap += e.Cap
			}
		}
	}
}

// Edge returns the query record for one edge, reporting ok=false for an
// out-of-range ID.
func (v *View) Edge(id graph.EdgeID) (EdgeView, bool) {
	if int(id) < 0 || int(id) >= len(v.edges) {
		return EdgeView{}, false
	}
	return v.edges[id], true
}

// NumEdges returns the number of edges in the view.
func (v *View) NumEdges() int { return len(v.edges) }

// SourceSide reports whether a vertex lies on the source side of the
// minimum cut (ok=false for an out-of-range vertex).
func (v *View) SourceSide(u graph.VertexID) (bool, bool) {
	if int(u) < 0 || int(u) >= v.NumVertices {
		return false, false
	}
	return v.sourceSide[u], true
}

// MinCut returns the cut edges (source→sink crossing) and their total
// crossing capacity. The returned slice is owned by the view; treat it
// as read-only.
func (v *View) MinCut() ([]graph.EdgeID, int64) { return v.cut, v.cutCap }
