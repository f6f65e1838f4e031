package dynamic

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
)

// buildViewChecked materializes a snapshot's view and asserts the
// whole-view invariants that hold for any converged strict-termination
// run: the flow value matches the snapshot, every edge respects its
// capacity in both residual directions, the source and sink land on
// their own cut sides, and — the max-flow min-cut theorem — the cut's
// crossing capacity equals the flow value.
func buildViewChecked(t *testing.T, snap *Snapshot) *View {
	t.Helper()
	v, err := BuildView(snap)
	if err != nil {
		t.Fatalf("BuildView: %v", err)
	}
	if v.FlowValue != snap.Result.MaxFlow {
		t.Fatalf("view flow = %d, snapshot says %d", v.FlowValue, snap.Result.MaxFlow)
	}
	if v.Gen != snap.Gen {
		t.Fatalf("view gen = %d, snapshot gen %d", v.Gen, snap.Gen)
	}
	for i := 0; i < v.NumEdges(); i++ {
		e, ok := v.Edge(graph.EdgeID(i))
		if !ok {
			t.Fatalf("edge %d missing", i)
		}
		if e.ResidualFwd < 0 || e.ResidualRev < 0 {
			t.Fatalf("edge %d has negative residual: fwd %d rev %d (flow %d, cap %d)",
				i, e.ResidualFwd, e.ResidualRev, e.Flow, e.Cap)
		}
	}
	if s, ok := v.SourceSide(v.Source); !ok || !s {
		t.Fatal("source is not on the source side of the cut")
	}
	if s, ok := v.SourceSide(v.Sink); !ok || s {
		t.Fatal("sink is on the source side of the cut (run not converged?)")
	}
	if _, cap := v.MinCut(); cap != v.FlowValue {
		t.Fatalf("min-cut capacity %d != max flow %d", cap, v.FlowValue)
	}
	return v
}

func TestViewPathGraph(t *testing.T) {
	cluster := testCluster(2)
	snap := solveSnap(t, cluster, pathGraph(3, 5), core.Options{})
	v := buildViewChecked(t, snap)

	// A saturated path: every edge carries 5 of 5.
	for i := 0; i < v.NumEdges(); i++ {
		e, _ := v.Edge(graph.EdgeID(i))
		if e.Flow != 5 || e.ResidualFwd != 0 {
			t.Errorf("edge %d: flow %d residual %d, want 5/0", i, e.Flow, e.ResidualFwd)
		}
	}
	cut, _ := v.MinCut()
	if len(cut) != 1 {
		t.Errorf("path min cut has %d edges, want 1", len(cut))
	}
	if _, ok := v.Edge(graph.EdgeID(v.NumEdges())); ok {
		t.Error("out-of-range edge lookup reported ok")
	}
	if _, ok := v.SourceSide(graph.VertexID(v.NumVertices)); ok {
		t.Error("out-of-range vertex lookup reported ok")
	}
}

func TestViewSmallWorldAndAcrossGenerations(t *testing.T) {
	base, err := graphgen.BarabasiAlbert(300, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 4, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	// One hash per generation over everything a view serves, recorded
	// when views still decoded the persisted records: a view built from
	// the snapshot's flow vector must serve the same answers.
	viewGenerationsPinned(t, in, 3, []uint64{
		0xe698ba468fa19fff, 0x350cb8527a2fa53, 0x16730ce42e555c20, 0x6e2002713be1d302,
	})
}

func TestViewDirectedEdgesPinned(t *testing.T) {
	in, err := graphgen.WattsStrogatz(200, 6, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.RandomCapacities(in, 9, 11)
	for i := range in.Edges {
		in.Edges[i].Directed = i%3 == 0
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	viewGenerationsPinned(t, in, 2, []uint64{
		0x2b986f4a78f1d8, 0xcf631d5a3f2c85f9, 0x85329e9d16e88ab7,
	})
}

// TestBuildViewRejectsNonMaximalFlow: a snapshot whose flow vector is
// not maximum gets no view, since its cut would be wrong.
func TestBuildViewRejectsNonMaximalFlow(t *testing.T) {
	cluster := testCluster(2)
	snap := solveSnap(t, cluster, pathGraph(3, 5), core.Options{})
	res := *snap.Result
	res.Flows = make([]int64, len(snap.Result.Flows))
	zeroed := *snap
	zeroed.Result = &res
	_, err := BuildView(&zeroed)
	if err == nil || !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("BuildView on a zeroed flow vector: %v, want an internal error", err)
	}
}

// viewGenerationsPinned solves in, applies gens randomized batches, and
// checks every generation's view against its invariants and against
// want, one viewHash per generation.
func viewGenerationsPinned(t *testing.T, in *graph.Input, gens int, want []uint64) {
	t.Helper()
	cluster := testCluster(2)
	cur := solveSnap(t, cluster, in, core.Options{})
	got := []uint64{viewHash(buildViewChecked(t, cur))}
	profile := graphgen.DefaultUpdateProfile()
	for g := 1; g <= gens; g++ {
		batch, err := graphgen.GenerateUpdates(cur.Input, 12, profile, int64(100*g))
		if err != nil {
			t.Fatal(err)
		}
		cur = applyChecked(t, cluster, cur, batch).Snapshot
		v := buildViewChecked(t, cur)
		if v.Gen != g {
			t.Fatalf("generation %d view reports gen %d", g, v.Gen)
		}
		got = append(got, viewHash(v))
	}
	for g := range got {
		if got[g] != want[g] {
			t.Errorf("generation %d view hash %#x, want %#x", g, got[g], want[g])
		}
	}
}

// viewHash is an FNV-1a hash over every Edge(id), every SourceSide(v)
// and MinCut's edge list and capacity.
func viewHash(v *View) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(x int64) { buf = binary.AppendVarint(buf, x) }
	for i := 0; i < v.NumEdges(); i++ {
		e, _ := v.Edge(graph.EdgeID(i))
		put(int64(e.U))
		put(int64(e.V))
		put(e.Cap)
		if e.Directed {
			put(1)
		} else {
			put(0)
		}
		put(e.Flow)
		put(e.ResidualFwd)
		put(e.ResidualRev)
	}
	for u := 0; u < v.NumVertices; u++ {
		if s, _ := v.SourceSide(graph.VertexID(u)); s {
			put(1)
		} else {
			put(0)
		}
	}
	cut, c := v.MinCut()
	for _, id := range cut {
		put(int64(id))
	}
	put(c)
	h.Write(buf) //nolint:errcheck // hash writes never fail
	return h.Sum64()
}
