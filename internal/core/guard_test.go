package core

import (
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/dfs/dfstest"
	"ffmr/internal/distmr"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/trace"
)

// TestGuardedDFSAllVariants runs FF1-FF5 on both backends over a DFS
// whose blocks are checksummed when stored and checked whenever read,
// deleted or closed: the DFS keeps the buffers it is handed and hands out
// the blocks it keeps, so a caller that reused a written buffer or wrote
// into a read one would fail the run, naming the file.
func TestGuardedDFSAllVariants(t *testing.T) {
	in, err := graphgen.WattsStrogatz(160, 6, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, 42)
	want := dinicValue(t, in)

	h := distHarness(t, distmr.HarnessConfig{Workers: 3, Tracer: trace.New()})
	for _, backend := range []string{"simulated", "distributed"} {
		for _, variant := range allVariants() {
			t.Run(backend+"/"+variant.String(), func(t *testing.T) {
				c := mapreduce.NewCluster(3, 4, dfstest.NewFS(t, dfs.Config{Nodes: 3, BlockSize: 16 << 10, Replication: 2}))
				c.Cost = mapreduce.ZeroCostModel()
				if backend == "distributed" {
					c.Distributed = h.Master
				}
				res, err := Run(c, in, Options{Variant: variant})
				if err != nil {
					t.Fatal(err)
				}
				if res.MaxFlow != want {
					t.Errorf("max flow %d, Dinic says %d", res.MaxFlow, want)
				}
			})
		}
	}
}
