package dynamic

import (
	"reflect"
	"sort"
	"strings"
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

// oracle computes the ground-truth max flow of an input graph.
func oracle(t *testing.T, in *graph.Input) int64 {
	t.Helper()
	net, err := maxflow.FromInput(in)
	if err != nil {
		t.Fatalf("FromInput: %v", err)
	}
	return maxflow.Dinic(net, int(in.Source), int(in.Sink))
}

func pathGraph(hops int, cap int64) *graph.Input {
	in := &graph.Input{NumVertices: hops + 1, Source: 0, Sink: graph.VertexID(hops)}
	for i := 0; i < hops; i++ {
		in.Edges = append(in.Edges, graph.InputEdge{
			U: graph.VertexID(i), V: graph.VertexID(i + 1), Cap: cap,
		})
	}
	return in
}

// solveSnap runs the cold base solve and sanity-checks it against the
// oracle.
func solveSnap(t *testing.T, cluster *mapreduce.Cluster, in *graph.Input, opts core.Options) *Snapshot {
	t.Helper()
	snap, err := Solve(cluster, in, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if want := oracle(t, in); snap.Result.MaxFlow != want {
		t.Fatalf("cold flow = %d, oracle says %d", snap.Result.MaxFlow, want)
	}
	return snap
}

// applyChecked applies a batch and asserts the warm flow matches the
// oracle on the updated graph and passes checkSnapshot.
func applyChecked(t *testing.T, cluster *mapreduce.Cluster, snap *Snapshot, batch []graph.Update) *Outcome {
	t.Helper()
	out, err := Apply(cluster, snap, batch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if want := oracle(t, out.Snapshot.Input); out.Warm.MaxFlow != want {
		t.Fatalf("warm flow = %d, oracle says %d on the updated graph", out.Warm.MaxFlow, want)
	}
	if !out.Warm.Converged {
		t.Fatal("warm run did not converge")
	}
	checkSnapshot(t, cluster, out.Snapshot)
	return out
}

// checkSnapshot asserts that a snapshot's persisted state and flow
// vector agree (Validate, with the run's resolved options and final
// prefix), and that the vector is a feasible flow of the snapshot's
// value that the certificate calls maximal.
func checkSnapshot(t *testing.T, cluster *mapreduce.Cluster, snap *Snapshot) {
	t.Helper()
	in, res := snap.Input, snap.Result
	if err := core.Validate(cluster.FS, in, snap.Opts, res); err != nil {
		t.Fatalf("gen %d state: %v", snap.Gen, err)
	}
	if err := core.CheckAssignment(in, res.Flows, res.MaxFlow); err != nil {
		t.Fatalf("gen %d flow vector: %v", snap.Gen, err)
	}
	if _, _, maximal := core.ResidualReachable(in, res.Flows); !maximal {
		t.Fatalf("gen %d: the certificate finds an augmenting path in the flow vector", snap.Gen)
	}
}

func TestApplyCapacityDecrease(t *testing.T) {
	cluster := testCluster(2)
	snap := solveSnap(t, cluster, pathGraph(3, 5), core.Options{})

	out := applyChecked(t, cluster, snap, []graph.Update{graph.SetCapacity(1, 2, false)})
	if out.Warm.MaxFlow != 2 {
		t.Errorf("flow after decrease = %d, want 2", out.Warm.MaxFlow)
	}
	if out.Violations != 1 {
		t.Errorf("violations = %d, want 1", out.Violations)
	}
	if out.CancelledFlow != 3 {
		t.Errorf("cancelled flow = %d, want 3", out.CancelledFlow)
	}
	// The drained flow of 2 is already maximum, so the certificate stops
	// the warm run before round 1.
	if out.Warm.Rounds != 0 {
		t.Errorf("warm rounds = %d, want 0 (the repaired flow is maximum)", out.Warm.Rounds)
	}
	if out.Snapshot.Gen != 1 {
		t.Errorf("gen = %d, want 1", out.Snapshot.Gen)
	}
}

func TestApplyCapacityIncreaseReaugments(t *testing.T) {
	cluster := testCluster(2)
	snap := solveSnap(t, cluster, pathGraph(3, 5), core.Options{})

	// Shrink the middle edge, then widen it past its original capacity:
	// the second warm run must re-augment along the repaired residual
	// graph back to the other edges' bottleneck.
	out1 := applyChecked(t, cluster, snap, []graph.Update{graph.SetCapacity(1, 2, false)})
	out2 := applyChecked(t, cluster, out1.Snapshot, []graph.Update{graph.SetCapacity(1, 9, false)})
	if out2.Warm.MaxFlow != 5 {
		t.Errorf("flow after increase = %d, want 5", out2.Warm.MaxFlow)
	}
	if out2.Violations != 0 {
		t.Errorf("violations = %d, want 0 (residual-monotone batch)", out2.Violations)
	}
	if out2.CancelledFlow != 0 {
		t.Errorf("residual-monotone batch must cancel no flow; cancelled=%d", out2.CancelledFlow)
	}
	if out2.Snapshot.Gen != 2 {
		t.Errorf("gen = %d, want 2", out2.Snapshot.Gen)
	}
}

func TestApplyInsertAddsCapacity(t *testing.T) {
	cluster := testCluster(2)
	in := pathGraph(2, 5)
	in.Edges[1].Cap = 2 // bottleneck 1 -> 2
	snap := solveSnap(t, cluster, in, core.Options{})
	if snap.Result.MaxFlow != 2 {
		t.Fatalf("cold flow = %d, want 2", snap.Result.MaxFlow)
	}

	out := applyChecked(t, cluster, snap, []graph.Update{graph.InsertEdge(1, 2, 4, false)})
	if out.Warm.MaxFlow != 5 {
		t.Errorf("flow after insert = %d, want 5", out.Warm.MaxFlow)
	}
	if out.CancelledFlow != 0 || out.Violations != 0 {
		t.Errorf("insert is residual-monotone; cancelled=%d violations=%d", out.CancelledFlow, out.Violations)
	}
}

func TestApplyDeleteDisconnects(t *testing.T) {
	cluster := testCluster(2)
	snap := solveSnap(t, cluster, pathGraph(3, 4), core.Options{})

	out := applyChecked(t, cluster, snap, []graph.Update{graph.DeleteEdge(1)})
	if out.Warm.MaxFlow != 0 {
		t.Errorf("flow after disconnecting delete = %d, want 0", out.Warm.MaxFlow)
	}
	if out.CancelledFlow != 4 {
		t.Errorf("cancelled flow = %d, want 4", out.CancelledFlow)
	}
}

func TestApplyMixedBatch(t *testing.T) {
	// Diamond: s -> 1 -> t and s -> 2 -> t, then one batch that deletes
	// a branch, shrinks another edge and inserts a bypass.
	in := &graph.Input{
		NumVertices: 4, Source: 0, Sink: 3,
		Edges: []graph.InputEdge{
			{U: 0, V: 1, Cap: 3}, // e0
			{U: 1, V: 3, Cap: 3}, // e1
			{U: 0, V: 2, Cap: 2}, // e2
			{U: 2, V: 3, Cap: 2}, // e3
		},
	}
	cluster := testCluster(2)
	snap := solveSnap(t, cluster, in, core.Options{})
	if snap.Result.MaxFlow != 5 {
		t.Fatalf("cold flow = %d, want 5", snap.Result.MaxFlow)
	}

	out := applyChecked(t, cluster, snap, []graph.Update{
		graph.DeleteEdge(3),               // kills the s->2->t branch
		graph.SetCapacity(1, 2, false),    // shrinks 1->t
		graph.InsertEdge(1, 2, 10, false), // useless bypass into the dead branch
	})
	// Only s->1->t survives with bottleneck 2.
	if out.Warm.MaxFlow != 2 {
		t.Errorf("flow = %d, want 2", out.Warm.MaxFlow)
	}
	if out.Violations != 2 {
		t.Errorf("violations = %d, want 2 (deleted branch + shrunk edge)", out.Violations)
	}

	// Generation 2 restores the deleted branch via the bypass inserted
	// above: s -> 1 -> 2 -> t.
	out2 := applyChecked(t, cluster, out.Snapshot, []graph.Update{
		graph.SetCapacity(3, 2, false), // resurrect 2->t
	})
	// Both edges into t carry 2 again and both are reachable.
	if out2.Warm.MaxFlow != 4 {
		t.Errorf("flow = %d, want 4", out2.Warm.MaxFlow)
	}
}

// TestApplyInsertAtIsolatedVertex inserts edges at a vertex that has no
// record in the snapshot: round #0 is written from the updated input, so
// the vertex gets one, and the new s-3-t path carries flow.
func TestApplyInsertAtIsolatedVertex(t *testing.T) {
	in := pathGraph(2, 3)
	in.NumVertices = 4 // vertex 3 exists but has no edges, hence no record
	cluster := testCluster(2)
	snap := solveSnap(t, cluster, in, core.Options{})

	out := applyChecked(t, cluster, snap, []graph.Update{
		graph.InsertEdge(0, 3, 5, false),
		graph.InsertEdge(3, 2, 5, false),
	})
	if out.Warm.MaxFlow != 8 {
		t.Errorf("flow after inserts at the isolated vertex = %d, want 8", out.Warm.MaxFlow)
	}
}

func TestApplyEmptyBatch(t *testing.T) {
	cluster := testCluster(2)
	snap := solveSnap(t, cluster, pathGraph(3, 5), core.Options{})
	out := applyChecked(t, cluster, snap, nil)
	if out.Warm.MaxFlow != snap.Result.MaxFlow {
		t.Errorf("empty batch changed the flow: %d -> %d", snap.Result.MaxFlow, out.Warm.MaxFlow)
	}
	if out.CancelledFlow != 0 || out.Violations != 0 {
		t.Errorf("empty batch must be a no-op repair; cancelled=%d violations=%d", out.CancelledFlow, out.Violations)
	}
	if out.Warm.Rounds != 0 {
		t.Errorf("warm rounds = %d, want 0 (the snapshot's flow is maximum)", out.Warm.Rounds)
	}
}

func TestApplyAllVariants(t *testing.T) {
	for _, v := range []core.Variant{core.FF1, core.FF2, core.FF3, core.FF4, core.FF5} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			cluster := testCluster(2)
			in := pathGraph(2, 5)
			in.Edges[1].Cap = 2
			snap := solveSnap(t, cluster, in, core.Options{Variant: v})
			out := applyChecked(t, cluster, snap, []graph.Update{
				graph.InsertEdge(1, 2, 4, false),
				graph.SetCapacity(0, 4, false),
			})
			if out.Warm.MaxFlow != 4 {
				t.Errorf("%s: flow = %d, want 4", v, out.Warm.MaxFlow)
			}
		})
	}
}

func TestRunWarmValidation(t *testing.T) {
	cluster := testCluster(2)
	in := pathGraph(2, 1)
	if _, err := core.RunWarm(cluster, in, core.Options{}, core.WarmStart{}); err == nil {
		t.Error("a flow vector that does not match the input's edges must be rejected")
	}
	if _, err := core.RunWarm(cluster, in, core.Options{}, core.WarmStart{Flows: make([]int64, len(in.Edges))}); err == nil {
		t.Error("a warm restart without a base must be rejected")
	}
	if _, err := core.RunWarm(cluster, in, core.Options{}, core.WarmStart{Flows: make([]int64, len(in.Edges)), Base: "none/"}); err == nil {
		t.Error("a base prefix that holds no records must be rejected")
	}
}

// TestRunWarmRejectsInfeasibleFlows starts a warm run from a vector that
// breaks conservation at vertex 1. The vector defines round #0, so the
// run must fail before it writes anything.
func TestRunWarmRejectsInfeasibleFlows(t *testing.T) {
	cluster := testCluster(2)
	in := pathGraph(3, 5)
	snap := solveSnap(t, cluster, in, core.Options{})

	warmOpts := snap.Opts
	warmOpts.PathPrefix = "infeasible/"
	_, err := core.RunWarm(cluster, in, warmOpts, core.WarmStart{Flows: []int64{5, 0, 0}, Base: snap.StatePrefix})
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("RunWarm error = %v, want a conservation violation", err)
	}
	if names := cluster.FS.List(warmOpts.PathPrefix); len(names) != 0 {
		t.Errorf("the rejected warm run wrote %q", names)
	}
}

// TestApplyChainKeepsOneRoundPerGeneration checks that an update chain's
// DFS footprint stays bounded: after Solve and three Applys, the chain's
// prefix holds the records of exactly one round per generation, the final
// round each snapshot reads.
func TestApplyChainKeepsOneRoundPerGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the FB1' chain graph; skipped with -short")
	}
	cluster := testCluster(3)
	snap, err := Solve(cluster, fbPrime(t)[0], core.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := map[string]bool{snap.StatePrefix: true}
	for gen := 1; gen <= 3; gen++ {
		batch, err := graphgen.GenerateUpdates(snap.Input, 20, graphgen.DefaultUpdateProfile(), int64(gen))
		if err != nil {
			t.Fatalf("GenerateUpdates: %v", err)
		}
		snap = applyChecked(t, cluster, snap, batch).Snapshot
		want[snap.StatePrefix] = true
	}
	got := map[string]bool{}
	for _, name := range cluster.FS.List(snap.Root) {
		if i := strings.LastIndex(name, "/part-"); i >= 0 {
			got[name[:i+1]] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("record directories under %q: %v, want one per generation: %v", snap.Root, keys(got), keys(want))
	}
	t.Logf("%d record directories, %d bytes under %q", len(got), cluster.FS.TotalSize(snap.Root), snap.Root)
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
