package prflow

import (
	"fmt"
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/maxflow"
)

func testCluster(nodes int) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: nodes, BlockSize: 16 << 10, Replication: 2})
	c := mapreduce.NewCluster(nodes, 4, fs)
	c.Cost = mapreduce.ZeroCostModel()
	return c
}

func runBoth(t *testing.T, in *graph.Input) {
	t.Helper()
	net, err := maxflow.FromInput(in)
	if err != nil {
		t.Fatal(err)
	}
	want := maxflow.Dinic(net, int(in.Source), int(in.Sink))

	cluster := testCluster(3)
	opts := core.Options{Engine: EngineName, KeepIntermediate: true}
	res, err := core.Run(cluster, in, opts)
	if err != nil {
		t.Fatalf("prflow run: %v", err)
	}
	if res.MaxFlow != want {
		t.Fatalf("prflow max flow = %d, Dinic = %d", res.MaxFlow, want)
	}
	if !res.Converged {
		t.Fatalf("prflow did not converge")
	}
	// The persisted state must satisfy the same axioms as an FFMR run.
	resolved := opts.WithDefaults(cluster.Nodes * cluster.SlotsPerNode)
	if err := core.Validate(cluster.FS, in, resolved, res); err != nil {
		t.Fatalf("persisted state invalid: %v", err)
	}
	if err := core.CheckAssignment(in, res.Flows, res.MaxFlow); err != nil {
		t.Fatalf("result assignment: %v", err)
	}
}

func TestTinyNetworks(t *testing.T) {
	cases := []struct {
		name string
		in   *graph.Input
	}{
		{"single-edge", &graph.Input{
			NumVertices: 2, Source: 0, Sink: 1,
			Edges: []graph.InputEdge{{U: 0, V: 1, Cap: 7}},
		}},
		{"clrs-directed", &graph.Input{
			// The classic CLRS Fig. 26 network; max flow 23.
			NumVertices: 6, Source: 0, Sink: 5,
			Edges: []graph.InputEdge{
				{U: 0, V: 1, Cap: 16, Directed: true},
				{U: 0, V: 2, Cap: 13, Directed: true},
				{U: 1, V: 2, Cap: 10, Directed: true},
				{U: 2, V: 1, Cap: 4, Directed: true},
				{U: 1, V: 3, Cap: 12, Directed: true},
				{U: 3, V: 2, Cap: 9, Directed: true},
				{U: 2, V: 4, Cap: 14, Directed: true},
				{U: 4, V: 3, Cap: 7, Directed: true},
				{U: 3, V: 5, Cap: 20, Directed: true},
				{U: 4, V: 5, Cap: 4, Directed: true},
			},
		}},
		{"undirected-diamond", &graph.Input{
			NumVertices: 4, Source: 0, Sink: 3,
			Edges: []graph.InputEdge{
				{U: 0, V: 1, Cap: 3},
				{U: 0, V: 2, Cap: 2},
				{U: 1, V: 3, Cap: 2},
				{U: 2, V: 3, Cap: 3},
				{U: 1, V: 2, Cap: 1},
			},
		}},
		{"disconnected-sink", &graph.Input{
			NumVertices: 4, Source: 0, Sink: 3,
			Edges: []graph.InputEdge{
				{U: 0, V: 1, Cap: 5},
				{U: 2, V: 3, Cap: 5},
			},
		}},
		{"parallel-edges", &graph.Input{
			NumVertices: 3, Source: 0, Sink: 2,
			Edges: []graph.InputEdge{
				{U: 0, V: 1, Cap: 2},
				{U: 0, V: 1, Cap: 3, Directed: true},
				{U: 1, V: 2, Cap: 4},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runBoth(t, tc.in) })
	}
}

func TestRandomFamilies(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("ws-%d", seed), func(t *testing.T) {
			base, err := graphgen.WattsStrogatz(60, 4, 0.2, seed)
			if err != nil {
				t.Fatal(err)
			}
			in, err := graphgen.AttachSuperSourceSink(base, 3, 3, seed+100)
			if err != nil {
				t.Fatal(err)
			}
			graphgen.RandomCapacities(in, 20, seed)
			runBoth(t, in)
		})
		t.Run(fmt.Sprintf("ba-%d", seed), func(t *testing.T) {
			base, err := graphgen.BarabasiAlbert(60, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			in, err := graphgen.AttachSuperSourceSink(base, 3, 3, seed+200)
			if err != nil {
				t.Fatal(err)
			}
			graphgen.RandomCapacities(in, 20, seed)
			runBoth(t, in)
		})
	}
}
