package core

import (
	"testing"

	"ffmr/internal/graph"
)

func TestUpdateVertexAppliesDeltas(t *testing.T) {
	v := &graph.VertexValue{
		Eu: []graph.Edge{
			{To: 1, ID: 10, Cap: 5, RevCap: 5, Fwd: true},
			{To: 2, ID: 11, Cap: 5, RevCap: 5, Fwd: false},
		},
		Su: []graph.ExcessPath{{Edges: []graph.PathEdge{
			{ID: 10, From: 9, To: 0, Cap: 5, Fwd: true},
		}}},
	}
	deltas := map[graph.EdgeID]int64{10: 2, 11: 3}
	updateVertex(v, newDeltaSet(deltas), nil)
	if v.Eu[0].Flow != 2 {
		t.Errorf("forward half flow = %d, want 2", v.Eu[0].Flow)
	}
	if v.Eu[1].Flow != -3 {
		t.Errorf("backward half flow = %d, want -3", v.Eu[1].Flow)
	}
	if v.Su[0].Edges[0].Flow != 2 {
		t.Errorf("path copy flow = %d, want 2", v.Su[0].Edges[0].Flow)
	}
}

func TestUpdateVertexDropsSaturatedPaths(t *testing.T) {
	mkPath := func(id graph.EdgeID) graph.ExcessPath {
		return graph.ExcessPath{Edges: []graph.PathEdge{
			{ID: id, From: 0, To: 1, Cap: 1, Fwd: true},
		}}
	}
	v := &graph.VertexValue{
		Eu: []graph.Edge{{To: 1, ID: 1, Cap: 1, RevCap: 1, Fwd: true}},
		Su: []graph.ExcessPath{mkPath(1), mkPath(2), mkPath(3)},
		Tu: []graph.ExcessPath{mkPath(2)},
	}
	dropped := updateVertex(v, newDeltaSet(map[graph.EdgeID]int64{2: 1}), nil)
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if len(v.Su) != 2 {
		t.Fatalf("Su has %d paths, want 2", len(v.Su))
	}
	for _, p := range v.Su {
		if p.Edges[0].ID == 2 {
			t.Error("saturated path survived")
		}
	}
	if len(v.Tu) != 0 {
		t.Error("saturated sink path survived")
	}
}

func TestUpdateVertexClearsStaleSentFlags(t *testing.T) {
	alive := graph.ExcessPath{Edges: []graph.PathEdge{
		{ID: 1, From: 0, To: 1, Cap: 5, Fwd: true},
	}}
	dying := graph.ExcessPath{Edges: []graph.PathEdge{
		{ID: 2, From: 0, To: 1, Cap: 1, Fwd: true},
	}}
	v := &graph.VertexValue{
		Eu: []graph.Edge{
			{To: 1, ID: 1, Cap: 5, RevCap: 5, Fwd: true},
			{To: 2, ID: 2, Cap: 1, RevCap: 1, Fwd: true},
		},
		Su:    []graph.ExcessPath{alive.Clone(), dying.Clone()},
		SentS: []uint64{alive.Signature(), dying.Signature()},
		SentT: []uint64{0, 0},
	}
	updateVertex(v, newDeltaSet(map[graph.EdgeID]int64{2: 1}), nil) // saturates "dying"
	if v.SentS[0] != alive.Signature() {
		t.Error("live sent flag cleared")
	}
	if v.SentS[1] != 0 {
		t.Error("stale sent flag not cleared")
	}
}

func vertexForExtension() *graph.VertexValue {
	return &graph.VertexValue{
		Eu: []graph.Edge{
			{To: 2, ID: 20, Cap: 1, RevCap: 1, Fwd: true},
			{To: 3, ID: 21, Cap: 1, RevCap: 1, Fwd: true},
		},
		Su: []graph.ExcessPath{{Edges: []graph.PathEdge{
			{ID: 5, From: 0, To: 1, Cap: 1, Fwd: true},
		}}},
		Tu: []graph.ExcessPath{{Edges: []graph.PathEdge{
			{ID: 6, From: 1, To: 9, Cap: 1, Fwd: true},
		}}},
	}
}

// extendAll runs extendVertex and returns every fragment it emitted, each
// a fresh object: the emit callback takes the scratch fragment's contents
// and zeroes it, as the pre-FF4 mappers do.
func extendAll(u graph.VertexID, v *graph.VertexValue, cfg *extendConfig) []fragment {
	var frags []fragment
	extendVertex(u, v, cfg, new(fragment), func(f *fragment) {
		frags = append(frags, *f)
		*f = fragment{}
	})
	return frags
}

func TestExtendVertexEmitsBothDirections(t *testing.T) {
	v := vertexForExtension()
	cfg := &extendConfig{source: 0, sink: 9}
	frags := extendAll(1, v, cfg)
	// Source path extends along both edges; sink path extends along both.
	if len(frags) != 4 {
		t.Fatalf("got %d fragments, want 4", len(frags))
	}
	var srcFrags, snkFrags int
	for _, f := range frags {
		switch {
		case len(f.Value.Su) == 1:
			srcFrags++
			p := f.Value.Su[0]
			if p.Tail() != f.To {
				t.Errorf("source extension tail = %d, fragment to %d", p.Tail(), f.To)
			}
		case len(f.Value.Tu) == 1:
			snkFrags++
			p := f.Value.Tu[0]
			if p.Head() != f.To {
				t.Errorf("sink extension head = %d, fragment to %d", p.Head(), f.To)
			}
		}
	}
	if srcFrags != 2 || snkFrags != 2 {
		t.Errorf("fragments: %d source, %d sink; want 2/2", srcFrags, snkFrags)
	}
}

func TestExtendVertexAvoidsCycles(t *testing.T) {
	v := vertexForExtension()
	// Give the source path a hop through vertex 2; extension to 2 must be
	// suppressed.
	v.Su[0].Edges = append(v.Su[0].Edges, graph.PathEdge{
		ID: 7, From: 2, To: 1, Cap: 1, Fwd: true,
	})
	frags := extendAll(1, v, &extendConfig{source: 0, sink: 9})
	for _, f := range frags {
		if len(f.Value.Su) == 1 && f.To == 2 {
			t.Error("source path extended into a cycle")
		}
	}
}

func TestExtendVertexRespectsResidual(t *testing.T) {
	v := vertexForExtension()
	v.Eu[0].Flow = 1 // saturate edge 20 forward
	frags := extendAll(1, v, &extendConfig{source: 0, sink: 9})
	for _, f := range frags {
		if len(f.Value.Su) == 1 && f.To == 2 {
			t.Error("source path extended over a saturated edge")
		}
	}
	// Sink extension to 2 uses the REVERSE residual (RevCap + Flow = 2),
	// so it must still happen.
	found := false
	for _, f := range frags {
		if len(f.Value.Tu) == 1 && f.To == 2 {
			found = true
		}
	}
	if !found {
		t.Error("sink extension suppressed despite reverse residual")
	}
}

func TestExtendVertexSentTrackingSuppressesResend(t *testing.T) {
	v := vertexForExtension()
	v.SentS = make([]uint64, len(v.Eu))
	v.SentT = make([]uint64, len(v.Eu))
	cfg := &extendConfig{source: 0, sink: 9, sentTracking: true}

	count := func() int {
		return len(extendAll(1, v, cfg))
	}
	first := count()
	if first != 4 {
		t.Fatalf("first pass emitted %d, want 4", first)
	}
	if v.SentS[0] == 0 || v.SentS[1] == 0 || v.SentT[0] == 0 || v.SentT[1] == 0 {
		t.Fatal("sent flags not recorded")
	}
	// Second pass: everything already outstanding, nothing re-sent (the
	// FF5 claim: no redundant messages in subsequent rounds).
	if second := count(); second != 0 {
		t.Fatalf("second pass emitted %d, want 0", second)
	}
	// After the outstanding paths saturate, sends resume.
	v.Su[0].Edges[0].Flow = 1
	updateVertex(v, &deltaSet{}, nil)
	if len(v.Su) != 0 {
		t.Fatal("saturated source path not dropped")
	}
	if v.SentS[0] != 0 || v.SentS[1] != 0 {
		t.Fatal("sent flags not cleared after saturation")
	}
}

func TestExtendVertexNilEmitOnlyUpdatesBookkeeping(t *testing.T) {
	v := vertexForExtension()
	v.SentS = make([]uint64, len(v.Eu))
	v.SentT = make([]uint64, len(v.Eu))
	cfg := &extendConfig{source: 0, sink: 9, sentTracking: true}
	extendVertex(1, v, cfg, nil, nil) // the schimmy reducer's replay mode
	if v.SentS[0] == 0 || v.SentT[0] == 0 {
		t.Error("replay mode did not update sent flags")
	}
}

func TestGenerateCandidatesPairsAndFilters(t *testing.T) {
	v := &graph.VertexValue{
		Su: []graph.ExcessPath{
			{Edges: []graph.PathEdge{{ID: 1, From: 0, To: 5, Cap: 1, Fwd: true}}},
			{Edges: []graph.PathEdge{{ID: 2, From: 0, To: 5, Cap: 1, Fwd: true}}},
		},
		Tu: []graph.ExcessPath{
			{Edges: []graph.PathEdge{{ID: 3, From: 5, To: 9, Cap: 1, Fwd: true}}},
		},
	}
	var local Accumulator
	got := generateCandidates(v, nil, &local)
	// Two pairs both share sink edge 3 (capacity 1): the local
	// accumulator must reject the second.
	if len(got) != 1 {
		t.Fatalf("got %d candidates, want 1", len(got))
	}
	if got[0].Head() != 0 || got[0].Tail() != 9 {
		t.Errorf("candidate endpoints %d->%d", got[0].Head(), got[0].Tail())
	}
}

func TestGenerateCandidatesEmptySides(t *testing.T) {
	var local Accumulator
	got := generateCandidates(&graph.VertexValue{
		Su: []graph.ExcessPath{{Edges: []graph.PathEdge{{ID: 1, Cap: 1, Fwd: true}}}},
	}, nil, &local)
	if len(got) != 0 {
		t.Error("candidate generated without sink paths")
	}
}

func TestPickSourceSkipsUnusable(t *testing.T) {
	saturated := graph.ExcessPath{Edges: []graph.PathEdge{
		{ID: 1, From: 0, To: 1, Cap: 1, Flow: 1, Fwd: true},
	}}
	through2 := graph.ExcessPath{Edges: []graph.PathEdge{
		{ID: 2, From: 0, To: 2, Cap: 1, Fwd: true},
		{ID: 3, From: 2, To: 1, Cap: 1, Fwd: true},
	}}
	ok := graph.ExcessPath{Edges: []graph.PathEdge{
		{ID: 4, From: 0, To: 1, Cap: 1, Fwd: true},
	}}
	su := []graph.ExcessPath{saturated, through2, ok}
	got := pickSource(1, su, 2)
	if got == nil {
		t.Fatal("no path picked")
	}
	if got.Edges[0].ID != 4 {
		t.Errorf("picked path with first edge %d, want 4", got.Edges[0].ID)
	}
	if p := pickSource(1, su[:2], 2); p != nil {
		t.Error("picked an unusable path")
	}
}
