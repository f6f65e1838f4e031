package core

import (
	"ffmr/internal/graph"
)

// This file is the driver's maximality certificate, the stopping test of
// TerminationMaximal. By max-flow/min-cut a flow is maximum exactly when
// no residual s-t path remains, and then the capacity of the cut around
// the vertices the source still reaches equals the flow value. The
// driver holds the input in memory and learns every accepted delta from
// aug_proc, so one host BFS over residual arcs decides it; no MapReduce
// round has to run to find out. ResidualReachable is the same search for
// a flow vector held anywhere else: prflow's check of a finished run and
// the dynamic package's query views.

// residualGraph is a CSR over both arc directions of every input edge.
// Arc 2i is edge i's U -> V direction, arc 2i+1 its V -> U direction;
// the flow on the arcs is read per check from a flows vector indexed by
// edge (canonical U -> V orientation), so the CSR is built once per
// run. The BFS buffers are reused, so a check allocates nothing.
type residualGraph struct {
	in    *graph.Input
	start []int32 // the arcs leaving u are arcs[start[u]:start[u+1]]
	arcs  []int32
	seen  []bool
	queue []graph.VertexID
}

func newResidualGraph(in *graph.Input) *residualGraph {
	n := in.NumVertices
	start, arcs := graph.ArcIndex(in)
	return &residualGraph{
		in: in, start: start, arcs: arcs,
		seen: make([]bool, n), queue: make([]graph.VertexID, 0, n),
	}
}

// revCap is the capacity of an edge's V -> U direction.
func revCap(e *graph.InputEdge) int64 {
	if e.Directed {
		return 0
	}
	return e.Cap
}

// sinkReachable reports whether the sink is reachable from the source
// over arcs with positive residual capacity under flows — true means
// the flow is not maximum. When it returns false, seen marks the source
// side of a minimum cut.
func (g *residualGraph) sinkReachable(flows []int64) bool {
	clear(g.seen)
	src, sink := g.in.Source, g.in.Sink
	g.seen[src] = true
	g.queue = append(g.queue[:0], src)
	for head := 0; head < len(g.queue); head++ {
		u := g.queue[head]
		for _, a := range g.arcs[g.start[u]:g.start[u+1]] {
			e := &g.in.Edges[a>>1]
			f := flows[a>>1]
			to, residual := e.V, e.Cap-f
			if a&1 == 1 {
				to, residual = e.U, revCap(e)+f
			}
			if residual <= 0 || g.seen[to] {
				continue
			}
			if to == sink {
				return true
			}
			g.seen[to] = true
			g.queue = append(g.queue, to)
		}
	}
	return false
}

// cutCapacity is the capacity of the arcs leaving the vertex set the
// last sinkReachable call reached. After a call that returned false it
// is a minimum cut's capacity, which equals the value of a maximum flow.
func (g *residualGraph) cutCapacity() int64 {
	var c int64
	for i := range g.in.Edges {
		e := &g.in.Edges[i]
		switch {
		case g.seen[e.U] && !g.seen[e.V]:
			c += e.Cap
		case g.seen[e.V] && !g.seen[e.U]:
			c += revCap(e)
		}
	}
	return c
}

// ResidualReachable searches the residual graph induced by flows
// (flows[i] is the flow on in.Edges[i] in canonical U -> V orientation)
// from the source. maximal reports that the sink is unreachable, so the
// flow is maximum; then reached marks the source side of a minimum cut
// and cut is that cut's capacity, which equals the flow's value unless
// the vector is not a flow. When the flow is not maximal, reached is the
// part the search saw before it found the sink and cut is 0.
func ResidualReachable(in *graph.Input, flows []int64) (reached []bool, cut int64, maximal bool) {
	g := newResidualGraph(in)
	if g.sinkReachable(flows) {
		return g.seen, 0, false
	}
	return g.seen, g.cutCapacity(), true
}
