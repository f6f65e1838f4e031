// Package maxflow provides sequential, memory-resident maximum-flow
// algorithms: the Ford-Fulkerson method with DFS, Edmonds-Karp (shortest
// augmenting paths), Dinic's blocking-flow algorithm, and FIFO
// Push-Relabel with the gap heuristic. The paper positions these as the
// classical algorithms that "require the entire graph to fit into
// memory"; here they serve as ground truth for every FFMR variant and as
// baselines for the benchmark harness.
package maxflow

import (
	"fmt"
	"math"

	"ffmr/internal/graph"
)

// Network is a compact residual network in forward-star representation.
// Arcs are stored in pairs: arc i and arc i^1 are each other's reverses,
// the classical trick that makes residual updates O(1).
type Network struct {
	n     int
	head  []int32 // head[v] = first arc index of v, -1 if none
	next  []int32 // next[a] = next arc of the same tail
	to    []int32 // to[a] = arc head vertex
	cap   []int64 // cap[a] = remaining capacity of arc a
	flow0 []int64 // original capacity (kept for flow extraction)
}

// NewNetwork creates an empty network with n vertices.
func NewNetwork(n int) *Network {
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &Network{n: n, head: head}
}

// FromInput builds a residual network from a raw input graph, applying
// the same bi-directionalization as the vertex records FFMR's round #0
// writes (graph.HalfEdges): undirected edges get capacity c in both
// directions; directed edges get c forward and 0 backward.
func FromInput(in *graph.Input) (*Network, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	net := NewNetwork(in.NumVertices)
	for i := range in.Edges {
		e := &in.Edges[i]
		if e.Directed {
			net.AddEdge(int(e.U), int(e.V), e.Cap)
		} else {
			net.AddUndirectedEdge(int(e.U), int(e.V), e.Cap)
		}
	}
	return net, nil
}

// N returns the vertex count.
func (g *Network) N() int { return g.n }

// Arcs returns the number of directed arcs (including residual arcs).
func (g *Network) Arcs() int { return len(g.to) }

func (g *Network) addArc(u, v int, c int64) {
	g.to = append(g.to, int32(v))
	g.cap = append(g.cap, c)
	g.flow0 = append(g.flow0, c)
	g.next = append(g.next, g.head[u])
	g.head[u] = int32(len(g.to) - 1)
}

// AddEdge adds a directed edge u->v with capacity c (and the implicit
// zero-capacity residual arc v->u).
func (g *Network) AddEdge(u, v int, c int64) {
	g.addArc(u, v, c)
	g.addArc(v, u, 0)
}

// AddUndirectedEdge adds an edge with capacity c in both directions.
func (g *Network) AddUndirectedEdge(u, v int, c int64) {
	g.addArc(u, v, c)
	g.addArc(v, u, c)
}

// Clone returns an independent copy of the network, so multiple
// algorithms can run against the same initial capacities.
func (g *Network) Clone() *Network {
	c := &Network{
		n:     g.n,
		head:  append([]int32(nil), g.head...),
		next:  append([]int32(nil), g.next...),
		to:    append([]int32(nil), g.to...),
		cap:   append([]int64(nil), g.cap...),
		flow0: append([]int64(nil), g.flow0...),
	}
	return c
}

// Flow returns the current flow on arc a (original capacity minus
// remaining capacity); negative values indicate flow on the reverse arc.
func (g *Network) Flow(a int) int64 { return g.flow0[a] - g.cap[a] }

// OutFlow sums the net flow leaving vertex u over its original
// (positive-capacity) arcs. For the source after a max-flow run this is
// the flow value.
func (g *Network) OutFlow(u int) int64 {
	var sum int64
	for a := g.head[u]; a >= 0; a = g.next[a] {
		sum += g.Flow(int(a))
	}
	return sum
}

// CheckConservation verifies capacity and flow-conservation constraints,
// returning an error naming the first violated vertex or arc. s and t are
// exempt from conservation.
func (g *Network) CheckConservation(s, t int) error {
	for a := range g.to {
		if g.cap[a] < 0 {
			return fmt.Errorf("maxflow: arc %d over capacity by %d", a, -g.cap[a])
		}
	}
	excess := make([]int64, g.n)
	for u := 0; u < g.n; u++ {
		for a := g.head[u]; a >= 0; a = g.next[a] {
			excess[u] -= g.Flow(int(a))
		}
	}
	for u := 0; u < g.n; u++ {
		if u == s || u == t {
			continue
		}
		if excess[u] != 0 {
			return fmt.Errorf("maxflow: vertex %d violates conservation by %d", u, excess[u])
		}
	}
	return nil
}

// MinCut returns the source side of a minimum s-t cut of the current
// residual network (meaningful after running a max-flow algorithm): all
// vertices reachable from s through positive-residual arcs.
func (g *Network) MinCut(s int) []bool {
	seen := make([]bool, g.n)
	seen[s] = true
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := g.head[u]; a >= 0; a = g.next[a] {
			if g.cap[a] > 0 && !seen[g.to[a]] {
				seen[g.to[a]] = true
				queue = append(queue, g.to[a])
			}
		}
	}
	return seen
}

// CutCapacity sums the original capacity of arcs crossing from the given
// source side to its complement. By max-flow/min-cut duality this equals
// the maximum flow when side is a minimum cut.
func (g *Network) CutCapacity(side []bool) int64 {
	var sum int64
	for u := 0; u < g.n; u++ {
		if !side[u] {
			continue
		}
		for a := g.head[u]; a >= 0; a = g.next[a] {
			if !side[g.to[a]] {
				sum += g.flow0[a]
			}
		}
	}
	return sum
}

const inf = int64(math.MaxInt64)
