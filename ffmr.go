// Package ffmr is a Go implementation of the MapReduce-based maximum-flow
// algorithms for large small-world network graphs of Halim, Yap and Wu
// (ICDCS 2011), together with everything needed to run them: an embedded
// multi-round MapReduce engine with a simulated cluster and distributed
// file system, the FF1..FF5 algorithm variants, the external stateful
// accumulator process (aug_proc), an MR-BFS baseline, sequential max-flow
// baselines (Ford-Fulkerson, Edmonds-Karp, Dinic, Push-Relabel), and
// small-world graph generators.
//
// # Quick start
//
//	g := ffmr.NewGraph(4)
//	g.AddEdge(0, 1, 1) // undirected, capacity 1
//	g.AddEdge(1, 3, 1)
//	g.AddEdge(0, 2, 1)
//	g.AddEdge(2, 3, 1)
//	g.SetSource(0)
//	g.SetSink(3)
//	res, err := ffmr.Compute(g, ffmr.WithVariant(ffmr.FF5), ffmr.WithNodes(4))
//
// Compute runs the full multi-round MapReduce pipeline: round #0 writes
// the edge list's vertex records to the DFS from the host, then max-flow
// rounds run until the flow is maximum. The result carries the flow
// value plus the per-round statistics the paper reports (accepted
// augmenting paths, shuffle bytes, simulated cluster runtime).
package ffmr

import (
	"fmt"

	"ffmr/internal/graph"
)

// Variant selects an algorithm version; see the package documentation of
// internal/core for what each adds.
type Variant int

// The five algorithm variants of the paper, in cumulative order, plus
// names for the termination rules.
const (
	FF1 Variant = 1 + iota
	FF2
	FF3
	FF4
	FF5
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	if v >= FF1 && v <= FF5 {
		return fmt.Sprintf("FF%d", int(v))
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Graph is a flow network under construction: a vertex count, an edge
// list, and designated source and sink vertices. The zero value is not
// usable; create instances with NewGraph.
type Graph struct {
	in graph.Input
	// den is the common capacity denominator for rational capacities
	// (see AddEdgeRational); 0 means 1.
	den int64
}

// NewGraph creates a graph with n vertices, numbered 0..n-1. The source
// defaults to vertex 0 and the sink to vertex n-1.
func NewGraph(n int) *Graph {
	return &Graph{in: graph.Input{
		NumVertices: n,
		Sink:        graph.VertexID(maxInt(n-1, 0)),
	}}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AddEdge adds an undirected edge with the given capacity in both
// directions, the form the paper's experiments use (the paper's round #0
// "makes the edges bi-directional").
func (g *Graph) AddEdge(u, v int, capacity int64) {
	g.in.Edges = append(g.in.Edges, graph.InputEdge{
		U: graph.VertexID(u), V: graph.VertexID(v), Cap: capacity,
	})
}

// AddArc adds a directed edge u -> v with the given capacity (and zero
// reverse capacity).
func (g *Graph) AddArc(u, v int, capacity int64) {
	g.in.Edges = append(g.in.Edges, graph.InputEdge{
		U: graph.VertexID(u), V: graph.VertexID(v), Cap: capacity, Directed: true,
	})
}

// SetSource designates the source vertex s.
func (g *Graph) SetSource(v int) { g.in.Source = graph.VertexID(v) }

// SetSink designates the sink vertex t.
func (g *Graph) SetSink(v int) { g.in.Sink = graph.VertexID(v) }

// Source returns the designated source vertex.
func (g *Graph) Source() int { return int(g.in.Source) }

// Sink returns the designated sink vertex.
func (g *Graph) Sink() int { return int(g.in.Sink) }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.in.NumVertices }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.in.Edges) }

// Validate checks the graph for structural problems (out-of-range
// endpoints, self-loops, negative capacities, source equal to sink).
func (g *Graph) Validate() error { return g.in.Validate() }

// Input exposes the internal representation for the command-line tools
// and benchmarks living in this module.
func (g *Graph) input() *graph.Input { return &g.in }

// fromInput wraps an internal input (sharing its storage).
func fromInput(in *graph.Input) *Graph { return &Graph{in: *in} }
