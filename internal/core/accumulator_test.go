package core

import (
	"math/rand"
	"testing"

	"ffmr/internal/graph"
)

// hop builds a forward path edge with the given id, capacity and flow.
func hop(id graph.EdgeID, from, to graph.VertexID, cap, flow int64, fwd bool) graph.PathEdge {
	return graph.PathEdge{ID: id, From: from, To: to, Cap: cap, Flow: flow, Fwd: fwd}
}

func TestAccumulatorAcceptsDisjointPaths(t *testing.T) {
	var a Accumulator
	p1 := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 0, 1, 1, 0, true), hop(2, 1, 2, 1, 0, true)}}
	p2 := graph.ExcessPath{Edges: []graph.PathEdge{hop(3, 0, 3, 1, 0, true), hop(4, 3, 2, 1, 0, true)}}
	if d := a.Accept(&p1, graph.CapInf); d != 1 {
		t.Fatalf("p1 delta = %d, want 1", d)
	}
	if d := a.Accept(&p2, graph.CapInf); d != 1 {
		t.Fatalf("p2 delta = %d, want 1", d)
	}
}

func TestAccumulatorRejectsConflicts(t *testing.T) {
	var a Accumulator
	shared := hop(9, 1, 2, 1, 0, true)
	p1 := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 0, 1, 1, 0, true), shared}}
	p2 := graph.ExcessPath{Edges: []graph.PathEdge{hop(2, 0, 1, 1, 0, true), shared}}
	if d := a.Accept(&p1, graph.CapInf); d != 1 {
		t.Fatalf("p1 delta = %d", d)
	}
	if d := a.Accept(&p2, graph.CapInf); d != 0 {
		t.Fatalf("conflicting path accepted with delta %d", d)
	}
}

func TestAccumulatorPartialCapacitySharing(t *testing.T) {
	var a Accumulator
	shared := hop(9, 1, 2, 5, 0, true)
	p1 := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 0, 1, 3, 0, true), shared}}
	p2 := graph.ExcessPath{Edges: []graph.PathEdge{hop(2, 0, 1, 4, 0, true), shared}}
	if d := a.Accept(&p1, graph.CapInf); d != 3 {
		t.Fatalf("p1 delta = %d, want 3", d)
	}
	// 2 units of capacity remain on the shared edge.
	if d := a.Accept(&p2, graph.CapInf); d != 2 {
		t.Fatalf("p2 delta = %d, want 2", d)
	}
	if d := a.Accept(&p2, graph.CapInf); d != 0 {
		t.Fatalf("exhausted edge accepted with delta %d", d)
	}
}

func TestAccumulatorBottleneckComputation(t *testing.T) {
	var a Accumulator
	p := graph.ExcessPath{Edges: []graph.PathEdge{
		hop(1, 0, 1, 10, 0, true),
		hop(2, 1, 2, 4, 1, true), // residual 3: the bottleneck
		hop(3, 2, 3, 10, 0, true),
	}}
	if d := a.Feasible(&p); d != 3 {
		t.Fatalf("Feasible = %d, want 3", d)
	}
	if d := a.Accept(&p, graph.CapInf); d != 3 {
		t.Fatalf("Accept = %d, want 3", d)
	}
}

func TestAccumulatorLimit(t *testing.T) {
	var a Accumulator
	p := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 0, 1, 10, 0, true)}}
	if d := a.Accept(&p, 1); d != 1 {
		t.Fatalf("limited accept = %d, want 1", d)
	}
	// 9 units remain.
	if d := a.Accept(&p, graph.CapInf); d != 9 {
		t.Fatalf("second accept = %d, want 9", d)
	}
}

func TestAccumulatorOppositeDirectionsNetOut(t *testing.T) {
	// Using an edge backward frees capacity for a forward use: pushing
	// against granted flow cancels (residual-graph semantics).
	var a Accumulator
	fwd := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 0, 1, 1, 0, true)}}
	if d := a.Accept(&fwd, graph.CapInf); d != 1 {
		t.Fatalf("forward accept = %d", d)
	}
	// The edge is saturated forward by the grant, but a backward
	// traversal has residual 2: the original reverse capacity 1 plus the
	// 1 unit of granted forward flow it can cancel.
	bwd := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 1, 0, 1, 0, false)}}
	if d := a.Accept(&bwd, graph.CapInf); d != 2 {
		t.Fatalf("backward (cancelling) accept = %d, want 2", d)
	}
}

func TestAccumulatorNonSimplePathBothDirections(t *testing.T) {
	// A single walk that uses edge 5 forward and later backward nets to
	// zero on that edge; the walk's bottleneck comes from other hops.
	var a Accumulator
	p := graph.ExcessPath{Edges: []graph.PathEdge{
		hop(1, 0, 1, 2, 0, true),
		hop(5, 1, 2, 1, 1, true),  // saturated forward!
		hop(2, 2, 1, 2, 0, true),  // detour
		hop(5, 1, 2, 1, 1, false), // wait: this is 2->1 backward
		hop(3, 2, 3, 2, 0, true),
	}}
	// The forward hop of edge 5 has residual 0, but net use of edge 5 in
	// this walk is 0, so the walk is feasible with delta 2... except the
	// saturated hop has m = sign*net = 0, so it imposes no constraint.
	if d := a.Feasible(&p); d != 2 {
		t.Fatalf("net-zero edge constrained the walk: delta = %d, want 2", d)
	}
}

// feasibleByMap is Feasible as first written, with a per-call map of net
// uses: the reference the scratch-based version is held to.
func feasibleByMap(a *Accumulator, p *graph.ExcessPath) int64 {
	if len(p.Edges) == 0 {
		return 0
	}
	netUse := make(map[graph.EdgeID]int64, len(p.Edges))
	for i := range p.Edges {
		if p.Edges[i].Fwd {
			netUse[p.Edges[i].ID]++
		} else {
			netUse[p.Edges[i].ID]--
		}
	}
	best := graph.CapInf
	for i := range p.Edges {
		pe := &p.Edges[i]
		sign := int64(1)
		if !pe.Fwd {
			sign = -1
		}
		slack := pe.Cap - pe.Flow - sign*a.pending[pe.ID]
		m := sign * netUse[pe.ID]
		if m <= 0 {
			continue
		}
		if slack <= 0 {
			return 0
		}
		if d := slack / m; d < best {
			best = d
		}
	}
	if best <= 0 {
		return 0
	}
	return best
}

func TestFeasibleMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var acc Accumulator
	for trial := 0; trial < 5000; trial++ {
		if trial%50 == 0 {
			acc.Reset()
		}
		var p graph.ExcessPath
		for n := 1 + rng.Intn(24); n > 0; n-- {
			// Few distinct edges, so paths repeat them in both directions.
			p.Edges = append(p.Edges, graph.PathEdge{
				ID: graph.EdgeID(rng.Intn(12)), Cap: int64(rng.Intn(6)), Flow: int64(rng.Intn(4)) - 1, Fwd: rng.Intn(2) == 0,
			})
		}
		want := feasibleByMap(&acc, &p)
		if got := acc.Feasible(&p); got != want {
			t.Fatalf("trial %d: Feasible = %d, reference says %d, path %+v", trial, got, want, p.Edges)
		}
		acc.Accept(&p, 1+int64(rng.Intn(3)))
	}
}

func TestAccumulatorRejectsEmptyPath(t *testing.T) {
	var a Accumulator
	var p graph.ExcessPath
	if d := a.Accept(&p, graph.CapInf); d != 0 {
		t.Fatalf("empty path accepted with delta %d", d)
	}
}

func TestAccumulatorStaleFlowRejected(t *testing.T) {
	// A path recorded when the edge still had residual must be rejected
	// if the path's own (updated) flow values show saturation.
	var a Accumulator
	p := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 0, 1, 3, 3, true)}}
	if d := a.Accept(&p, graph.CapInf); d != 0 {
		t.Fatalf("saturated path accepted with delta %d", d)
	}
}

func TestAccumulatorDeltasAndReset(t *testing.T) {
	var a Accumulator
	p := graph.ExcessPath{Edges: []graph.PathEdge{
		hop(1, 0, 1, 5, 0, true),
		hop(2, 1, 2, 5, 0, false), // backward traversal: canonical -delta
	}}
	if d := a.Accept(&p, graph.CapInf); d != 5 {
		t.Fatalf("accept = %d", d)
	}
	deltas := a.Deltas()
	if deltas[1] != 5 || deltas[2] != -5 {
		t.Fatalf("deltas = %v", deltas)
	}
	a.Reset()
	if a.Len() != 0 {
		t.Error("Reset left grants behind")
	}
}

func TestEncodeDecodeDeltas(t *testing.T) {
	in := map[graph.EdgeID]int64{3: 7, 1: -2, 100000: 1}
	out, err := DecodeDeltas(EncodeDeltas(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d deltas", len(out))
	}
	for id, d := range in {
		if out[id] != d {
			t.Errorf("delta[%d] = %d, want %d", id, out[id], d)
		}
	}
	// Empty table round trips to empty.
	if out, err := DecodeDeltas(EncodeDeltas(nil)); err != nil || len(out) != 0 {
		t.Errorf("empty table: %v %v", out, err)
	}
	// Deterministic encoding regardless of map order.
	a := EncodeDeltas(in)
	b := EncodeDeltas(in)
	if string(a) != string(b) {
		t.Error("delta encoding nondeterministic")
	}
	if _, err := DecodeDeltas([]byte{0x80}); err == nil {
		t.Error("corrupt delta file accepted")
	}
}

func TestEncodeDeltasSkipsZero(t *testing.T) {
	var a Accumulator
	p := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 0, 1, 5, 0, true)}}
	a.Accept(&p, graph.CapInf)
	q := graph.ExcessPath{Edges: []graph.PathEdge{hop(1, 1, 0, 5, -5, false)}}
	a.Accept(&q, 5)
	// Edge 1's grants cancel; Deltas must omit it.
	if d := a.Deltas(); len(d) != 0 {
		t.Errorf("cancelled grants survive: %v", d)
	}
}
