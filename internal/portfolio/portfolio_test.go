package portfolio

import (
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/maxflow"
	"ffmr/internal/prflow"
)

func testCluster(nodes int) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: nodes, BlockSize: 16 << 10, Replication: 2})
	c := mapreduce.NewCluster(nodes, 4, fs)
	c.Cost = mapreduce.ZeroCostModel()
	return c
}

func dinicValue(t *testing.T, in *graph.Input) int64 {
	t.Helper()
	net, err := maxflow.FromInput(in)
	if err != nil {
		t.Fatal(err)
	}
	return maxflow.Dinic(net, int(in.Source), int(in.Sink))
}

func probe(t *testing.T, in *graph.Input) *Probe {
	t.Helper()
	cluster := testCluster(3)
	p, err := ProbeInstance(cluster, in, 0, "probe/", false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestChoosePerFamily(t *testing.T) {
	t.Run("watts-strogatz-ffmr", func(t *testing.T) {
		base, err := graphgen.WattsStrogatz(300, 4, 0.1, 21)
		if err != nil {
			t.Fatal(err)
		}
		in, err := graphgen.AttachSuperSourceSink(base, 3, 3, 22)
		if err != nil {
			t.Fatal(err)
		}
		d := Choose(probe(t, in))
		if d.Engine != "ffmr" || d.Reduce {
			t.Fatalf("WS should run plain FFMR, got %+v", d)
		}
	})
	t.Run("barabasi-albert-reduce", func(t *testing.T) {
		base, err := graphgen.BarabasiAlbert(800, 2, 23)
		if err != nil {
			t.Fatal(err)
		}
		in, err := graphgen.AttachSuperSourceSink(base, 4, 4, 24)
		if err != nil {
			t.Fatal(err)
		}
		d := Choose(probe(t, in))
		if d.Engine != "ffmr" || !d.Reduce {
			t.Fatalf("BA(m=2) should run core-reduced FFMR, got %+v", d)
		}
	})
	t.Run("grid-prflow", func(t *testing.T) {
		in, err := graphgen.Grid(16, 16)
		if err != nil {
			t.Fatal(err)
		}
		p := probe(t, in)
		if p.DiameterEstimate < 30 {
			t.Fatalf("16x16 grid diameter estimate %d, want 30", p.DiameterEstimate)
		}
		d := Choose(p)
		if d.Engine != "prflow" {
			t.Fatalf("grid should choose prflow, got %+v", d)
		}
	})
	t.Run("bipartite-ffmr", func(t *testing.T) {
		in, err := graphgen.DenseBipartite(30, 30, 0.4, 25)
		if err != nil {
			t.Fatal(err)
		}
		d := Choose(probe(t, in))
		if d.Engine != "prflow" && d.Engine != "ffmr" {
			t.Fatalf("unexpected engine %q", d.Engine)
		}
		if d.Engine != "ffmr" {
			t.Fatalf("diameter-3 bipartite should stay on ffmr, got %+v", d)
		}
	})
}

// TestProbeMatchesMRBFS pins the host-side sweeps to the MR-BFS the paper
// estimates D with (core.RunBFS): the same sink distance, and the same
// eccentricity from the source and from the far vertex (an MR-BFS run's
// Rounds counts one empty round past the eccentricity).
func TestProbeMatchesMRBFS(t *testing.T) {
	families := []struct {
		name string
		in   func() (*graph.Input, error)
	}{
		{"ws", func() (*graph.Input, error) {
			base, err := graphgen.WattsStrogatz(300, 4, 0.1, 21)
			if err != nil {
				return nil, err
			}
			return graphgen.AttachSuperSourceSink(base, 3, 3, 22)
		}},
		{"ba", func() (*graph.Input, error) {
			base, err := graphgen.BarabasiAlbert(400, 2, 23)
			if err != nil {
				return nil, err
			}
			return graphgen.AttachSuperSourceSink(base, 4, 4, 24)
		}},
		{"grid", func() (*graph.Input, error) { return graphgen.Grid(12, 9) }},
		{"bipartite", func() (*graph.Input, error) { return graphgen.DenseBipartite(20, 25, 0.3, 25) }},
		{"isolated-vertex", func() (*graph.Input, error) {
			return &graph.Input{NumVertices: 6, Source: 1, Sink: 4, Edges: []graph.InputEdge{
				{U: 1, V: 2, Cap: 1}, {U: 2, V: 3, Cap: 1, Directed: true}, {U: 3, V: 4, Cap: 1}, {U: 1, V: 5, Cap: 1},
			}}, nil
		}},
		{"unreachable-sink", func() (*graph.Input, error) {
			return &graph.Input{NumVertices: 6, Source: 0, Sink: 5, Edges: []graph.InputEdge{
				{U: 0, V: 1, Cap: 1}, {U: 1, V: 2, Cap: 1}, {U: 0, V: 2, Cap: 1}, {U: 3, V: 4, Cap: 1}, {U: 4, V: 5, Cap: 1},
			}}, nil
		}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			in, err := fam.in()
			if err != nil {
				t.Fatal(err)
			}
			p := probe(t, in)
			cluster := testCluster(3)
			// eccentricity returns src's host eccentricity and the smallest
			// vertex at it, after checking it against an MR-BFS from src.
			eccentricity := func(src, sink graph.VertexID) (int, graph.VertexID, *core.BFSResult) {
				t.Helper()
				res, err := core.RunBFS(cluster, &graph.Input{NumVertices: in.NumVertices, Edges: in.Edges, Source: src, Sink: sink}, 0, "ref/")
				if err != nil {
					t.Fatal(err)
				}
				far := src
				dist := graph.HopDistances(graph.Adjacency(in), src)
				for u, d := range dist {
					if d > dist[far] {
						far = graph.VertexID(u)
					}
				}
				if got := int(dist[far]); res.Rounds-1 != got {
					t.Errorf("MR-BFS from %d ran %d rounds, host eccentricity is %d", src, res.Rounds, got)
				}
				return int(dist[far]), far, res
			}
			ecc, far, res := eccentricity(in.Source, in.Sink)
			if res.SinkDist != p.SinkDistance {
				t.Errorf("probe sink distance %d, MR-BFS %d", p.SinkDistance, res.SinkDist)
			}
			if far != in.Source {
				ecc2, _, res2 := eccentricity(far, in.Source)
				if res2.SinkDist != ecc {
					t.Errorf("far vertex %d is %d hops from the source by MR-BFS, want %d", far, res2.SinkDist, ecc)
				}
				ecc = max(ecc, ecc2)
			}
			if ecc != p.DiameterEstimate {
				t.Errorf("probe diameter estimate %d, MR-BFS double sweep %d", p.DiameterEstimate, ecc)
			}
		})
	}
}

// TestInvalidInputIsAnError: the probe and prflow index slices by vertex
// ID, and callers reach both without core.Run's validation.
func TestInvalidInputIsAnError(t *testing.T) {
	for name, in := range map[string]*graph.Input{
		"source-out-of-range": {NumVertices: 3, Source: 7, Sink: 2, Edges: []graph.InputEdge{{U: 0, V: 2, Cap: 1}}},
		"edge-out-of-range":   {NumVertices: 3, Source: 0, Sink: 2, Edges: []graph.InputEdge{{U: 0, V: 9, Cap: 1}}},
	} {
		if _, err := ProbeInstance(testCluster(1), in, 0, "probe/", false); err == nil {
			t.Errorf("%s: ProbeInstance accepted it", name)
		}
		if _, err := prflow.Run(testCluster(1), in, core.Options{Engine: prflow.EngineName}); err == nil {
			t.Errorf("%s: prflow.Run accepted it", name)
		}
	}
}

// TestAutoEndToEnd runs the full auto engine on each family and checks
// value parity with Dinic plus validity of the persisted state.
func TestAutoEndToEnd(t *testing.T) {
	families := []struct {
		name string
		in   func(t *testing.T) *graph.Input
	}{
		{"ws", func(t *testing.T) *graph.Input {
			base, err := graphgen.WattsStrogatz(120, 4, 0.2, 31)
			if err != nil {
				t.Fatal(err)
			}
			in, err := graphgen.AttachSuperSourceSink(base, 3, 3, 32)
			if err != nil {
				t.Fatal(err)
			}
			graphgen.RandomCapacities(in, 15, 33)
			return in
		}},
		{"ba-reduced", func(t *testing.T) *graph.Input {
			base, err := graphgen.BarabasiAlbert(200, 2, 34)
			if err != nil {
				t.Fatal(err)
			}
			in, err := graphgen.AttachSuperSourceSink(base, 3, 3, 35)
			if err != nil {
				t.Fatal(err)
			}
			graphgen.RandomCapacities(in, 15, 36)
			return in
		}},
		{"grid-prflow", func(t *testing.T) *graph.Input {
			in, err := graphgen.Grid(12, 12)
			if err != nil {
				t.Fatal(err)
			}
			graphgen.RandomCapacities(in, 9, 37)
			return in
		}},
		{"bipartite", func(t *testing.T) *graph.Input {
			in, err := graphgen.DenseBipartite(20, 25, 0.3, 38)
			if err != nil {
				t.Fatal(err)
			}
			graphgen.RandomCapacities(in, 7, 39)
			return in
		}},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			in := fam.in(t)
			want := dinicValue(t, in)
			cluster := testCluster(3)
			opts := core.Options{Engine: EngineName, KeepIntermediate: true}
			res, err := core.Run(cluster, in, opts)
			if err != nil {
				t.Fatalf("auto run: %v", err)
			}
			if res.MaxFlow != want {
				t.Fatalf("auto max flow = %d, Dinic = %d", res.MaxFlow, want)
			}
			resolved := opts.WithDefaults(cluster.Nodes * cluster.SlotsPerNode)
			if err := core.Validate(cluster.FS, in, resolved, res); err != nil {
				t.Fatalf("persisted state invalid: %v", err)
			}
		})
	}
}
