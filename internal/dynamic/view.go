package dynamic

import (
	"fmt"

	"ffmr/internal/core"
	"ffmr/internal/graph"
)

// This file is the snapshot read path: a View serves a completed run's
// flow — per-edge committed flow and residual capacities, the min-cut
// side of every vertex, and the cut itself — from the snapshot's flow
// vector and the maximality certificate's reached set, so flow-value,
// min-cut-membership and residual-capacity queries are O(1) lookups
// with no DFS reads. The flow service keeps one View resident per
// snapshot generation and answers queries against it while new
// generations are being solved; a View never changes after BuildView
// returns, so readers need no locks.

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

	// in and flows are the snapshot's input and flow vector; Edge works
	// out EdgeID id's record from in.Edges[id] and flows[id] (dynamic
	// updates never renumber).
	in    *graph.Input
	flows []int64
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

// BuildView certifies the snapshot's flow vector with
// core.ResidualReachable and keeps the reached set as the cut's source
// side. A flow the certificate does not find maximal, or whose cut does
// not have the snapshot's flow value, is an internal error: the view
// would serve a wrong cut.
func BuildView(snap *Snapshot) (*View, error) {
	in, flows := snap.Input, snap.Result.Flows
	if len(flows) != len(in.Edges) {
		return nil, fmt.Errorf("dynamic: view: snapshot has %d flows for %d edges", len(flows), len(in.Edges))
	}
	reached, cutCap, maximal := core.ResidualReachable(in, flows)
	if !maximal {
		return nil, fmt.Errorf("dynamic: view: internal error: a residual augmenting path remains at generation %d's flow value %d",
			snap.Gen, snap.Result.MaxFlow)
	}
	if cutCap != snap.Result.MaxFlow {
		return nil, fmt.Errorf("dynamic: view: internal error: the minimum cut has capacity %d, not generation %d's flow value %d",
			cutCap, snap.Gen, snap.Result.MaxFlow)
	}
	v := &View{
		Gen:         snap.Gen,
		FlowValue:   snap.Result.MaxFlow,
		NumVertices: in.NumVertices,
		Source:      in.Source,
		Sink:        in.Sink,
		in:          in,
		flows:       flows,
		sourceSide:  reached,
		cutCap:      cutCap,
	}
	// A cut edge crosses with capacity in the crossing direction: Cap
	// U→V, and V→U only when undirected.
	for i := range in.Edges {
		e := &in.Edges[i]
		us, vs := reached[e.U], reached[e.V]
		if e.Cap > 0 && (us && !vs || vs && !us && !e.Directed) {
			v.cut = append(v.cut, graph.EdgeID(i))
		}
	}
	return v, nil
}

// Edge returns the query record for one edge, reporting ok=false for an
// out-of-range ID.
func (v *View) Edge(id graph.EdgeID) (EdgeView, bool) {
	if int(id) < 0 || int(id) >= len(v.flows) {
		return EdgeView{}, false
	}
	e, f := &v.in.Edges[id], v.flows[id]
	ev := EdgeView{U: e.U, V: e.V, Cap: e.Cap, Directed: e.Directed, Flow: f,
		ResidualFwd: e.Cap - f, ResidualRev: e.Cap + f}
	if e.Directed {
		ev.ResidualRev = f
	}
	return ev, true
}

// NumEdges returns the number of edges in the view.
func (v *View) NumEdges() int { return len(v.flows) }

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
