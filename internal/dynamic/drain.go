package dynamic

import (
	"fmt"
	"maps"

	"ffmr/internal/graph"
)

// This file repairs the committed flow vector. A violating edge —
// one the batch left carrying more flow than its new capacity permits —
// sheds its excess in order of preference:
//
//  1. Reroute: push the excess from the edge's tail to its head along an
//     augmenting path in the residual network of the updated graph
//     (excluding the violating edge itself). The flow value is
//     unchanged, and — crucially for warm-restart cost — if the old flow
//     was maximum and the batch only decreased capacities, the rerouted
//     flow is still maximum, so the warm run's certificate stops it
//     before round 1.
//     Cancelling a cycle of committed flow through the edge is the
//     special case where the residual path consists solely of reverse
//     residual capacity, so this strictly generalizes flow-decomposition
//     cycle cancellation.
//  2. Drain: cancel a source-to-sink walk of committed flow through the
//     edge, lowering the flow value; the warm FFMR rounds re-augment
//     against the updated residual network afterwards.
//
// Flow conservation at every vertex except s and t guarantees the drain
// walk exists while any excess remains, and integer capacities make
// every step cancel at least one unit, so the loop terminates.

// drainPlan is the computed repair: flow deltas in canonical
// orientation, the (non-positive) change to the committed flow value,
// how many edges violated their updated capacity, and how much excess
// was rerouted rather than drained.
type drainPlan struct {
	deltas     map[graph.EdgeID]int64
	flowDelta  int64
	violations int
	rerouted   int64
}

// step is one traversal of an edge during a repair search: dir +1 means
// the edge was crossed U -> V, -1 means V -> U.
type step struct {
	id  graph.EdgeID
	dir int64
}

// computeDrain repairs the committed flows f (one entry per edge of
// updated, canonical orientation) against the updated capacities, in
// place; the warm run starts from the result. The returned plan records
// the per-edge flow deltas the repair made.
func computeDrain(updated *graph.Input, f []int64) (*drainPlan, error) {
	if len(f) != len(updated.Edges) {
		return nil, fmt.Errorf("dynamic: %d committed flows for %d edges", len(f), len(updated.Edges))
	}
	plan := &drainPlan{deltas: make(map[graph.EdgeID]int64)}

	capF := func(id graph.EdgeID) int64 { return updated.Edges[id].Cap }
	capR := func(id graph.EdgeID) int64 {
		if updated.Edges[id].Directed {
			return 0
		}
		return updated.Edges[id].Cap
	}

	// Violations in deterministic (edge ID) order. An edge violates in
	// at most one direction: forward when f > capF, reverse when
	// -f > capR.
	var violating []graph.EdgeID
	for id := range updated.Edges {
		id := graph.EdgeID(id)
		if f[id] > capF(id) || -f[id] > capR(id) {
			violating = append(violating, id)
		}
	}
	plan.violations = len(violating)
	if len(violating) == 0 {
		return plan, nil
	}

	// Arcs of every edge (capacity changes make any edge usable by the
	// residual search, flow-carrying or not).
	start, arcs := graph.ArcIndex(updated)

	// residual capacity crossing edge id out of vertex x.
	resid := func(id graph.EdgeID, x graph.VertexID) int64 {
		if x == updated.Edges[id].U {
			return capF(id) - f[id]
		}
		return capR(id) + f[id]
	}
	// committed flow crossing edge id out of vertex x (skeleton arcs).
	carrying := func(id graph.EdgeID, x graph.VertexID) int64 {
		if x == updated.Edges[id].U {
			return f[id]
		}
		return -f[id]
	}
	// add changes one edge's flow by a canonical delta.
	add := func(id graph.EdgeID, d int64) {
		f[id] += d
		plan.deltas[id] += d
	}
	// push moves amount along a search path; dir orients each step's
	// delta into the canonical (U -> V positive) frame.
	push := func(path []step, amount int64) {
		for _, s := range path {
			add(s.id, s.dir*amount)
		}
	}
	pathMin := func(path []step, weight func(graph.EdgeID, graph.VertexID) int64, bound int64) int64 {
		for _, s := range path {
			from := updated.Edges[s.id].U
			if s.dir < 0 {
				from = updated.Edges[s.id].V
			}
			if w := weight(s.id, from); w < bound {
				bound = w
			}
		}
		return bound
	}

	for _, vid := range violating {
	repair:
		for {
			var exc int64
			var from, to graph.VertexID
			var dir int64
			e := &updated.Edges[vid]
			switch {
			case f[vid] > capF(vid):
				exc, from, to, dir = f[vid]-capF(vid), e.U, e.V, 1
			case -f[vid] > capR(vid):
				exc, from, to, dir = -f[vid]-capR(vid), e.V, e.U, -1
			default:
				// Repaired (possibly as a side effect of an earlier
				// violation's walks).
				break repair
			}

			// Preferred repair: reroute the excess through the residual
			// network, keeping the flow value.
			if path, ok := bfsSearch(updated, start, arcs, from, to, vid, resid); ok {
				delta := pathMin(path, resid, exc)
				if delta <= 0 {
					return nil, fmt.Errorf("dynamic: reroute stalled on edge %d", vid)
				}
				push(path, delta)
				add(vid, -dir*delta)
				plan.rerouted += delta
				continue
			}

			// Fallback: drain a source-to-sink flow walk through the
			// edge. When no residual from->to path exists, the two
			// skeleton segments cannot share an edge: a shared edge r
			// would chain to ~> r ~> from into a committed-flow walk
			// from to back to from, whose reversal is a residual
			// from->to path — contradiction. So the walk never repeats
			// an edge and its minimum is a safe cancellation bottleneck.
			p1, ok := bfsSearch(updated, start, arcs, updated.Source, from, vid, carrying)
			if !ok {
				return nil, fmt.Errorf("dynamic: no flow path from source to vertex %d; records violate conservation", from)
			}
			p2, ok := bfsSearch(updated, start, arcs, to, updated.Sink, vid, carrying)
			if !ok {
				return nil, fmt.Errorf("dynamic: no flow path from vertex %d to sink; records violate conservation", to)
			}
			delta := pathMin(p1, carrying, pathMin(p2, carrying, exc))
			if delta <= 0 {
				return nil, fmt.Errorf("dynamic: flow decomposition stalled on edge %d", vid)
			}
			// Cancelling committed flow = pushing against it.
			for i := range p1 {
				p1[i].dir = -p1[i].dir
			}
			for i := range p2 {
				p2[i].dir = -p2[i].dir
			}
			push(p1, delta)
			push(p2, delta)
			add(vid, -dir*delta)
			plan.flowDelta -= delta
		}
	}

	// Deltas are the canonical flow changes the repair produced; walks
	// can cancel each other out on an edge.
	maps.DeleteFunc(plan.deltas, func(_ graph.EdgeID, d int64) bool { return d == 0 })
	return plan, nil
}

// bfsSearch finds a shortest path of edge traversals from src to dst
// whose per-step weight (residual capacity for reroutes, committed flow
// for skeleton walks) is positive, never crossing edge skip in either
// direction. start and arcs are in's graph.ArcIndex, whose runs are in
// edge-ID order, so the search is deterministic. An empty path
// (src == dst) is valid.
func bfsSearch(in *graph.Input, start, arcs []int32, src, dst graph.VertexID,
	skip graph.EdgeID, weight func(graph.EdgeID, graph.VertexID) int64) ([]step, bool) {
	if src == dst {
		return nil, true
	}
	type prevRec struct {
		from graph.VertexID
		s    step
	}
	prev := make(map[graph.VertexID]prevRec)
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, a := range arcs[start[x]:start[x+1]] {
			id := graph.EdgeID(a >> 1)
			if id == skip || weight(id, x) <= 0 {
				continue
			}
			e := &in.Edges[id]
			y, dir := e.V, int64(1)
			if a&1 == 1 {
				y, dir = e.U, -1
			}
			if y == src {
				continue
			}
			if _, seen := prev[y]; seen {
				continue
			}
			prev[y] = prevRec{from: x, s: step{id: id, dir: dir}}
			if y == dst {
				var path []step
				for at := dst; at != src; at = prev[at].from {
					path = append(path, prev[at].s)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, true
			}
			queue = append(queue, y)
		}
	}
	return nil, false
}
