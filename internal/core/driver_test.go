package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/maxflow"
)

// testCluster builds a small simulated cluster with a fast cost model.
func testCluster(nodes int) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: nodes, BlockSize: 16 << 10, Replication: 2})
	c := mapreduce.NewCluster(nodes, 4, fs)
	c.Cost = mapreduce.ZeroCostModel()
	return c
}

// dinicValue computes the ground-truth max flow of an input graph.
func dinicValue(t *testing.T, in *graph.Input) int64 {
	t.Helper()
	net, err := maxflow.FromInput(in)
	if err != nil {
		t.Fatalf("FromInput: %v", err)
	}
	return maxflow.Dinic(net, int(in.Source), int(in.Sink))
}

// pathGraph builds s - v1 - ... - vk - t with the given capacity.
func pathGraph(hops int, cap int64) *graph.Input {
	in := &graph.Input{NumVertices: hops + 1, Source: 0, Sink: graph.VertexID(hops)}
	for i := 0; i < hops; i++ {
		in.Edges = append(in.Edges, graph.InputEdge{
			U: graph.VertexID(i), V: graph.VertexID(i + 1), Cap: cap,
		})
	}
	return in
}

func allVariants() []Variant { return []Variant{FF1, FF2, FF3, FF4, FF5} }

func TestRunPathGraph(t *testing.T) {
	for _, variant := range allVariants() {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			cluster := testCluster(3)
			in := pathGraph(4, 1)
			res, err := Run(cluster, in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.MaxFlow != 1 {
				t.Fatalf("max flow = %d, want 1", res.MaxFlow)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
		})
	}
}

func TestRunDiamondGraph(t *testing.T) {
	// s has two disjoint length-2 routes to t plus a cross edge; classic
	// case where augmenting-path choice matters.
	in := &graph.Input{
		NumVertices: 4,
		Source:      0,
		Sink:        3,
		Edges: []graph.InputEdge{
			{U: 0, V: 1, Cap: 1}, {U: 0, V: 2, Cap: 1},
			{U: 1, V: 3, Cap: 1}, {U: 2, V: 3, Cap: 1},
			{U: 1, V: 2, Cap: 1},
		},
	}
	want := dinicValue(t, in)
	for _, variant := range allVariants() {
		t.Run(variant.String(), func(t *testing.T) {
			res, err := Run(testCluster(2), in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.MaxFlow != want {
				t.Fatalf("max flow = %d, want %d", res.MaxFlow, want)
			}
		})
	}
}

func TestRunDisconnected(t *testing.T) {
	in := &graph.Input{
		NumVertices: 4,
		Source:      0,
		Sink:        3,
		Edges: []graph.InputEdge{
			{U: 0, V: 1, Cap: 5},
			{U: 2, V: 3, Cap: 5},
		},
	}
	for _, variant := range allVariants() {
		t.Run(variant.String(), func(t *testing.T) {
			res, err := Run(testCluster(2), in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.MaxFlow != 0 {
				t.Fatalf("max flow = %d, want 0", res.MaxFlow)
			}
		})
	}
}

func TestRunMatchesDinicOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("random cross-check is slow")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.Intn(24)
		m := n + rng.Intn(3*n)
		in, err := graphgen.ErdosRenyi(n, m, rng.Int63())
		if err != nil {
			t.Fatalf("ErdosRenyi: %v", err)
		}
		if trial%2 == 1 {
			graphgen.RandomCapacities(in, 5, rng.Int63())
		}
		in.Source, in.Sink = graphgen.PickEndpoints(in)
		want := dinicValue(t, in)
		for _, variant := range allVariants() {
			t.Run(fmt.Sprintf("trial%d/%s", trial, variant), func(t *testing.T) {
				res, err := Run(testCluster(2), in, Options{Variant: variant})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.MaxFlow != want {
					t.Fatalf("max flow = %d, want %d (n=%d m=%d)", res.MaxFlow, want, n, len(in.Edges))
				}
			})
		}
	}
}

func TestRunSmallWorldSuperSourceSink(t *testing.T) {
	if testing.Short() {
		t.Skip("small-world run is slow")
	}
	base, err := graphgen.WattsStrogatz(300, 6, 0.1, 42)
	if err != nil {
		t.Fatalf("WattsStrogatz: %v", err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 4, 5, 43)
	if err != nil {
		t.Fatalf("AttachSuperSourceSink: %v", err)
	}
	want := dinicValue(t, in)
	if want == 0 {
		t.Fatal("test graph has zero max flow; want positive")
	}
	for _, variant := range allVariants() {
		t.Run(variant.String(), func(t *testing.T) {
			res, err := Run(testCluster(4), in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.MaxFlow != want {
				t.Fatalf("max flow = %d, want %d", res.MaxFlow, want)
			}
			t.Logf("%s: flow=%d rounds=%d", variant, res.MaxFlow, res.Rounds)
		})
	}
}

func TestRunWithCombinerMatches(t *testing.T) {
	base, err := graphgen.BarabasiAlbert(400, 3, 51)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 4, 4, 52)
	if err != nil {
		t.Fatalf("AttachSuperSourceSink: %v", err)
	}
	want := dinicValue(t, in)
	for _, variant := range allVariants() {
		t.Run(variant.String(), func(t *testing.T) {
			res, err := Run(testCluster(3), in, Options{Variant: variant, UseCombiner: true})
			if err != nil {
				t.Fatalf("Run with combiner: %v", err)
			}
			if res.MaxFlow != want {
				t.Fatalf("combiner changed the result: %d, want %d", res.MaxFlow, want)
			}
		})
	}
}

func TestRunUnderInjectedFaults(t *testing.T) {
	// The multi-round driver must survive worker crashes when the engine
	// retries task attempts, and still compute the exact max flow.
	base, err := graphgen.WattsStrogatz(200, 4, 0.1, 61)
	if err != nil {
		t.Fatalf("WattsStrogatz: %v", err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 3, 3, 62)
	if err != nil {
		t.Fatalf("AttachSuperSourceSink: %v", err)
	}
	want := dinicValue(t, in)
	for _, variant := range []Variant{FF1, FF3, FF5} {
		t.Run(variant.String(), func(t *testing.T) {
			cluster := testCluster(3)
			cluster.Fault = mapreduce.Faults{MaxAttempts: 12, FailureRate: 0.15, Seed: 63}
			res, err := Run(cluster, in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("Run under faults: %v", err)
			}
			if res.MaxFlow != want {
				t.Fatalf("max flow = %d, want %d", res.MaxFlow, want)
			}
		})
	}
}

// TestFF2ShrinksBiggestRecord checks the first benefit the paper claims
// for aug_proc (Section IV-A): "it shrinks the size of the largest
// record, [which] can be extremely large as it contains all the
// augmenting path candidates". FF1 funnels every candidate through the
// sink vertex's record; FF2 routes them out-of-band.
func TestFF2ShrinksBiggestRecord(t *testing.T) {
	base, err := graphgen.BarabasiAlbert(800, 4, 41)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 8, 6, 42)
	if err != nil {
		t.Fatalf("AttachSuperSourceSink: %v", err)
	}
	maxGroup := func(variant Variant) int64 {
		res, err := Run(testCluster(3), in, Options{Variant: variant})
		if err != nil {
			t.Fatalf("Run %s: %v", variant, err)
		}
		var max int64
		for _, rs := range res.RoundStats[1:] { // skip conversion round
			if rs.MaxGroupBytes > max {
				max = rs.MaxGroupBytes
			}
		}
		return max
	}
	ff1, ff2 := maxGroup(FF1), maxGroup(FF2)
	// FF1's sink group holds every shuffled candidate; FF2's biggest
	// group is an ordinary vertex. The gap should be substantial.
	if ff2*2 >= ff1 {
		t.Errorf("FF2 biggest reduce group %d not well below FF1's %d", ff2, ff1)
	}
}

// TestActiveVerticesProfile checks the paper's parallelism narrative:
// speculative execution plus bi-directional search keeps the number of
// active vertices growing over the early rounds.
func TestActiveVerticesProfile(t *testing.T) {
	base, err := graphgen.BarabasiAlbert(600, 4, 43)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 4, 6, 44)
	if err != nil {
		t.Fatalf("AttachSuperSourceSink: %v", err)
	}
	res, err := Run(testCluster(3), in, Options{Variant: FF5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var peak int64
	for _, rs := range res.RoundStats {
		if rs.ActiveVertices > peak {
			peak = rs.ActiveVertices
		}
	}
	if peak < int64(in.NumVertices)/2 {
		t.Errorf("peak active vertices %d below half the graph (%d); parallelism techniques ineffective",
			peak, in.NumVertices)
	}
	// Early rounds must grow the active set.
	if len(res.RoundStats) > 3 && res.RoundStats[2].ActiveVertices <= res.RoundStats[1].ActiveVertices {
		t.Errorf("active set not growing: round1=%d round2=%d",
			res.RoundStats[1].ActiveVertices, res.RoundStats[2].ActiveVertices)
	}
}

// TestPaperTerminationSweep empirically checks the paper's Fig. 2
// stopping rule across a batch of small-world workloads: it must always
// reach the true maximum flow (this is the paper's implicit soundness
// claim for the movement-counter heuristic on small-world graphs, which
// we document in EXPERIMENTS.md).
func TestPaperTerminationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("termination sweep is slow")
	}
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 6; trial++ {
		// Alternate generator families.
		var workload *graph.Input
		var err error
		switch trial % 3 {
		case 0:
			workload, err = graphgen.BarabasiAlbert(300+rng.Intn(300), 3, rng.Int63())
		case 1:
			workload, err = graphgen.WattsStrogatz(300+rng.Intn(300), 6, 0.15, rng.Int63())
		default:
			workload, err = graphgen.RMAT(9, 6, rng.Int63())
		}
		if err != nil {
			t.Fatal(err)
		}
		wl, err := graphgen.AttachSuperSourceSink(workload, 3, 4, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		want := dinicValue(t, wl)
		res, err := Run(testCluster(3), wl, Options{Variant: FF5, Termination: TerminationPaper})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.MaxFlow != want {
			t.Errorf("trial %d: paper termination reached %d, true max flow %d",
				trial, res.MaxFlow, want)
		}
	}
}

func TestRunPaperTermination(t *testing.T) {
	// The paper's Fig. 2 termination rule must agree with the strict rule
	// on the evaluation workloads (small-world graphs with super
	// source/sink), which is the paper's implicit correctness claim.
	base, err := graphgen.BarabasiAlbert(500, 4, 71)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 4, 6, 72)
	if err != nil {
		t.Fatalf("AttachSuperSourceSink: %v", err)
	}
	want := dinicValue(t, in)
	res, err := Run(testCluster(3), in, Options{Variant: FF5, Termination: TerminationPaper})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.MaxFlow != want {
		t.Fatalf("paper termination stopped early: flow %d, want %d", res.MaxFlow, want)
	}
	// The strict rule agrees on the value (round counts are sampled from
	// independent nondeterministic runs, so they are not compared).
	strict, err := Run(testCluster(3), in, Options{Variant: FF5})
	if err != nil {
		t.Fatalf("strict run: %v", err)
	}
	if strict.MaxFlow != want {
		t.Fatalf("strict run flow %d, want %d", strict.MaxFlow, want)
	}
}

// TestSoakLargeSmallWorld is a larger end-to-end run covering the MR and
// BSP engines on one 20K-vertex scale-free workload against the oracle.
func TestSoakLargeSmallWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	base, err := graphgen.BarabasiAlbert(20_000, 4, 1001)
	if err != nil {
		t.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 16, 8, 1002)
	if err != nil {
		t.Fatal(err)
	}
	want := dinicValue(t, in)
	if want < 100 {
		t.Fatalf("workload too easy: |f*| = %d", want)
	}
	mr, err := Run(testCluster(4), in, Options{Variant: FF5})
	if err != nil {
		t.Fatal(err)
	}
	if mr.MaxFlow != want {
		t.Fatalf("MR FF5 = %d, want %d", mr.MaxFlow, want)
	}
	bsp, err := RunBSP(in, BSPOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bsp.MaxFlow != want {
		t.Fatalf("BSP = %d, want %d", bsp.MaxFlow, want)
	}
	t.Logf("soak: |f*|=%d, MR %d rounds, BSP %d supersteps", want, mr.Rounds, bsp.Supersteps)
}

func TestRunBFSBaseline(t *testing.T) {
	in := pathGraph(5, 1)
	res, err := RunBFS(testCluster(2), in, 0, "")
	if err != nil {
		t.Fatalf("RunBFS: %v", err)
	}
	if res.SinkDist != 5 {
		t.Fatalf("sink dist = %d, want 5", res.SinkDist)
	}
	if res.Visited != 6 {
		t.Fatalf("visited = %d, want 6", res.Visited)
	}
}

// TestRunLeavesOnlyFinalState: a run without KeepIntermediate deletes
// each round's inputs — the previous round's records and the deltas file
// the round consumed — as soon as the round returns, so it ends holding
// only the final round's part files and its pending-deltas file. MR-BFS
// ends holding only its final round.
func TestRunLeavesOnlyFinalState(t *testing.T) {
	in, err := graphgen.WattsStrogatz(120, 6, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	for _, variant := range []Variant{FF1, FF5} {
		t.Run(variant.String(), func(t *testing.T) {
			c := testCluster(3)
			opts := Options{Variant: variant}
			res, err := Run(c, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds < 2 {
				t.Fatalf("the run took %d rounds; the test needs a round that deletes another", res.Rounds)
			}
			final := FinalGraphPrefix(opts, res.Rounds)
			want := append([]string{deltaName("ffmr/", res.Rounds+1)}, c.FS.List(final)...)
			if got := c.FS.List(""); !slices.Equal(got, want) || len(want) < 2 {
				t.Errorf("after %d rounds the DFS holds %q, want the final round's parts and pending deltas %q",
					res.Rounds, got, want)
			}
		})
	}
	t.Run("MR-BFS", func(t *testing.T) {
		c := testCluster(3)
		res, err := RunBFS(c, in, 4, "bfs/")
		if err != nil {
			t.Fatal(err)
		}
		want := c.FS.List(roundPrefix("bfs/", res.Rounds))
		if got := c.FS.List(""); !slices.Equal(got, want) || len(want) != 4 {
			t.Errorf("after %d rounds the DFS holds %q, want the final round's 4 parts", res.Rounds, got)
		}
	})
}
