package core_test

// Differential engine-parity harness: every registered engine (the
// paper's FFMR driver, the prflow push-relabel engine, and the
// portfolio's auto driver) must compute the exact same max-flow value
// as the sequential Dinic and Push-Relabel oracles on every graph
// family, and must leave behind persisted state that passes
// core.Validate. One family additionally runs against the real-process
// distributed MapReduce backend. This lives in an external test
// package because the engines register themselves with core via
// import, which package core's own tests cannot do without a cycle.

import (
	"fmt"
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/maxflow"
	"ffmr/internal/portfolio"
	_ "ffmr/internal/prflow"
)

func parityCluster(nodes int) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: nodes, BlockSize: 16 << 10, Replication: 2})
	c := mapreduce.NewCluster(nodes, 4, fs)
	c.Cost = mapreduce.ZeroCostModel()
	return c
}

func attach(t *testing.T, base *graph.Input, err error, w, minDeg int, seed, capSeed int64) *graph.Input {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, w, minDeg, seed)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.RandomCapacities(in, 12, capSeed)
	return in
}

func parityFamilies(t *testing.T) map[string]*graph.Input {
	t.Helper()
	fams := map[string]*graph.Input{}

	// FB-style small-world crawl workload: the paper's own regime.
	base, err := graphgen.BarabasiAlbert(250, 4, 41)
	fams["fb-style"] = attach(t, base, err, 4, 4, 42, 43)

	// Scale-free with a heavy peelable fringe.
	base, err = graphgen.BarabasiAlbert(250, 2, 44)
	fams["power-law"] = attach(t, base, err, 3, 3, 45, 46)

	// High-diameter lattice; corner-to-corner.
	grid, err := graphgen.Grid(11, 11)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.RandomCapacities(grid, 8, 47)
	fams["grid"] = grid

	// Dense bipartite matching-like instance.
	bip, err := graphgen.DenseBipartite(18, 22, 0.35, 48)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.RandomCapacities(bip, 5, 49)
	fams["bipartite"] = bip
	return fams
}

func oracles(t *testing.T, in *graph.Input) int64 {
	t.Helper()
	net1, err := maxflow.FromInput(in)
	if err != nil {
		t.Fatal(err)
	}
	dinic := maxflow.Dinic(net1, int(in.Source), int(in.Sink))
	net2, err := maxflow.FromInput(in)
	if err != nil {
		t.Fatal(err)
	}
	pr := maxflow.PushRelabel(net2, int(in.Source), int(in.Sink))
	if dinic != pr {
		t.Fatalf("oracles disagree: Dinic %d, PushRelabel %d", dinic, pr)
	}
	return dinic
}

// TestEngineParity cross-checks every engine against both oracles on
// every family, on the simulated backend.
func TestEngineParity(t *testing.T) {
	for name, in := range parityFamilies(t) {
		name, in := name, in
		t.Run(name, func(t *testing.T) {
			want := oracles(t, in)
			for _, engine := range []string{"ffmr", "prflow", portfolio.EngineName} {
				engine := engine
				t.Run(engine, func(t *testing.T) {
					cluster := parityCluster(3)
					opts := core.Options{
						Engine:              engine,
						KeepIntermediate:    true,
						DeterministicAccept: true,
						PathPrefix:          fmt.Sprintf("parity/%s/%s/", name, engine),
					}
					res, err := core.Run(cluster, in, opts)
					if err != nil {
						t.Fatalf("%s on %s: %v", engine, name, err)
					}
					if res.MaxFlow != want {
						t.Fatalf("%s on %s: max flow %d, oracles %d", engine, name, res.MaxFlow, want)
					}
					if !res.Converged {
						t.Fatalf("%s on %s did not converge", engine, name)
					}
					resolved := opts.WithDefaults(cluster.Nodes * cluster.SlotsPerNode)
					if err := core.Validate(cluster.FS, in, resolved, res); err != nil {
						t.Fatalf("%s on %s: persisted state invalid: %v", engine, name, err)
					}
				})
			}
		})
	}
}

// TestEngineParityDistributed runs the power-law family's full engine
// portfolio against the real-process distributed backend and demands
// the same values as the simulated backend.
func TestEngineParityDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process harness in -short mode")
	}
	base, err := graphgen.BarabasiAlbert(150, 2, 51)
	in := attach(t, base, err, 3, 3, 52, 53)
	want := oracles(t, in)

	h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: 3})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()

	for _, engine := range []string{"ffmr", "prflow", portfolio.EngineName} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			cluster := parityCluster(3)
			cluster.Distributed = h.Master
			opts := core.Options{
				Engine:              engine,
				KeepIntermediate:    true,
				DeterministicAccept: true,
				PathPrefix:          fmt.Sprintf("dist/%s/", engine),
			}
			res, err := core.Run(cluster, in, opts)
			if err != nil {
				t.Fatalf("%s distributed: %v", engine, err)
			}
			if res.MaxFlow != want {
				t.Fatalf("%s distributed: max flow %d, oracles %d", engine, res.MaxFlow, want)
			}
		})
	}
}

// TestEngineRegistry covers the dispatch seams: unknown engines are
// rejected with the registered list, and the registry reports what the
// imports registered.
func TestEngineRegistry(t *testing.T) {
	names := core.EngineNames()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, n := range []string{"ffmr", "prflow", "auto"} {
		if !got[n] {
			t.Fatalf("EngineNames() = %v, missing %q", names, n)
		}
	}

	cluster := parityCluster(2)
	in := &graph.Input{
		NumVertices: 2, Source: 0, Sink: 1,
		Edges: []graph.InputEdge{{U: 0, V: 1, Cap: 1}},
	}
	if _, err := core.Run(cluster, in, core.Options{Engine: "no-such-engine"}); err == nil {
		t.Fatal("expected error for unknown engine")
	}
}
