package dynamic

import (
	"slices"
	"testing"

	"ffmr/internal/graph"
)

// drainInput builds an Input with the given edges; source 0, sink is the
// highest-numbered vertex.
func drainInput(n int, edges ...graph.InputEdge) *graph.Input {
	return &graph.Input{
		NumVertices: n,
		Source:      0,
		Sink:        graph.VertexID(n - 1),
		Edges:       edges,
	}
}

func TestComputeDrainPathViolation(t *testing.T) {
	// s -> 1 -> 2 -> t carrying 3 units; edge 1's capacity drops to 2.
	// The only repair is an s-t walk: one unit cancelled end to end.
	in := drainInput(4,
		graph.InputEdge{U: 0, V: 1, Cap: 5},
		graph.InputEdge{U: 1, V: 2, Cap: 2},
		graph.InputEdge{U: 2, V: 3, Cap: 5},
	)
	flows := []int64{3, 3, 3}
	plan, err := computeDrain(in, flows)
	if err != nil {
		t.Fatalf("computeDrain: %v", err)
	}
	if want := []int64{2, 2, 2}; !slices.Equal(flows, want) {
		t.Errorf("repaired flows %v, want %v", flows, want)
	}
	if plan.violations != 1 {
		t.Errorf("violations = %d, want 1", plan.violations)
	}
	if plan.flowDelta != -1 {
		t.Errorf("flowDelta = %d, want -1", plan.flowDelta)
	}
	if plan.rerouted != 0 {
		t.Errorf("rerouted = %d, want 0 (no alternative path exists)", plan.rerouted)
	}
	want := map[graph.EdgeID]int64{0: -1, 1: -1, 2: -1}
	if len(plan.deltas) != len(want) {
		t.Fatalf("deltas = %v, want %v", plan.deltas, want)
	}
	for id, d := range want {
		if plan.deltas[id] != d {
			t.Errorf("delta[%d] = %d, want %d", id, plan.deltas[id], d)
		}
	}
}

func TestComputeDrainCancelsCycle(t *testing.T) {
	// Two units s -> 1 -> t plus one unit circulating 1 -> 2 -> 3 -> 1.
	// Deleting a cycle edge must cancel the cycle (the reroute's residual
	// path runs backwards along the remaining cycle arcs), leaving the
	// flow value untouched.
	in := drainInput(5,
		graph.InputEdge{U: 0, V: 1, Cap: 5}, // e0 s -> 1, f=2
		graph.InputEdge{U: 1, V: 4, Cap: 5}, // e1 1 -> t, f=2
		graph.InputEdge{U: 1, V: 2, Cap: 0}, // e2 cycle, f=1, deleted
		graph.InputEdge{U: 2, V: 3, Cap: 5}, // e3 cycle, f=1
		graph.InputEdge{U: 3, V: 1, Cap: 5}, // e4 cycle, f=1
	)
	plan, err := computeDrain(in, []int64{2, 2, 1, 1, 1})
	if err != nil {
		t.Fatalf("computeDrain: %v", err)
	}
	if plan.violations != 1 {
		t.Errorf("violations = %d, want 1", plan.violations)
	}
	if plan.flowDelta != 0 {
		t.Errorf("flowDelta = %d, want 0 (cycle cancellation keeps the value)", plan.flowDelta)
	}
	want := map[graph.EdgeID]int64{2: -1, 3: -1, 4: -1}
	for id, d := range want {
		if plan.deltas[id] != d {
			t.Errorf("delta[%d] = %d, want %d", id, plan.deltas[id], d)
		}
	}
	if _, ok := plan.deltas[0]; ok {
		t.Error("s->1 flow must not change under cycle cancellation")
	}
}

func TestComputeDrainReroutesThroughSpareCapacity(t *testing.T) {
	// s -> 1 -> t carries 2 units; deleting 1 -> t must shift both units
	// onto the empty detour 1 -> 2 -> t instead of draining, keeping the
	// flow value (and maximality) intact.
	in := drainInput(4,
		graph.InputEdge{U: 0, V: 1, Cap: 2}, // e0, f=2
		graph.InputEdge{U: 1, V: 3, Cap: 0}, // e1, f=2, deleted
		graph.InputEdge{U: 1, V: 2, Cap: 2}, // e2, empty detour
		graph.InputEdge{U: 2, V: 3, Cap: 2}, // e3, empty detour
	)
	plan, err := computeDrain(in, []int64{2, 2, 0, 0})
	if err != nil {
		t.Fatalf("computeDrain: %v", err)
	}
	if plan.violations != 1 || plan.flowDelta != 0 {
		t.Errorf("violations=%d flowDelta=%d, want 1 and 0", plan.violations, plan.flowDelta)
	}
	if plan.rerouted != 2 {
		t.Errorf("rerouted = %d, want 2", plan.rerouted)
	}
	want := map[graph.EdgeID]int64{1: -2, 2: 2, 3: 2}
	for id, d := range want {
		if plan.deltas[id] != d {
			t.Errorf("delta[%d] = %d, want %d", id, plan.deltas[id], d)
		}
	}
	if _, ok := plan.deltas[0]; ok {
		t.Error("s->1 flow must not change under rerouting")
	}
}

func TestComputeDrainReverseOrientation(t *testing.T) {
	// Edge 1 is stored as (2,1) but carries flow 1 -> 2, i.e. canonical
	// flow -2. Making it directed removes the reverse capacity, so the
	// whole 2-unit path drains.
	in := drainInput(4,
		graph.InputEdge{U: 0, V: 1, Cap: 2},
		graph.InputEdge{U: 2, V: 1, Cap: 2, Directed: true},
		graph.InputEdge{U: 2, V: 3, Cap: 2},
	)
	plan, err := computeDrain(in, []int64{2, -2, 2})
	if err != nil {
		t.Fatalf("computeDrain: %v", err)
	}
	if plan.violations != 1 {
		t.Errorf("violations = %d, want 1", plan.violations)
	}
	if plan.flowDelta != -2 {
		t.Errorf("flowDelta = %d, want -2", plan.flowDelta)
	}
	want := map[graph.EdgeID]int64{0: -2, 1: 2, 2: -2}
	for id, d := range want {
		if plan.deltas[id] != d {
			t.Errorf("delta[%d] = %d, want %d", id, plan.deltas[id], d)
		}
	}
}

func TestComputeDrainNoViolations(t *testing.T) {
	in := drainInput(3,
		graph.InputEdge{U: 0, V: 1, Cap: 5},
		graph.InputEdge{U: 1, V: 2, Cap: 5},
	)
	plan, err := computeDrain(in, []int64{3, 3})
	if err != nil {
		t.Fatalf("computeDrain: %v", err)
	}
	if plan.violations != 0 || plan.flowDelta != 0 || len(plan.deltas) != 0 {
		t.Errorf("plan = %+v, want empty", plan)
	}
}

func TestComputeDrainConservationViolation(t *testing.T) {
	// Flow appears on a dead-end edge: no walk to the sink exists, which
	// means the records are corrupt and the drain must say so.
	in := drainInput(4,
		graph.InputEdge{U: 0, V: 1, Cap: 1},
	)
	if _, err := computeDrain(in, []int64{3}); err == nil {
		t.Fatal("expected a conservation error")
	}
}

// TestComputeDrainUnknownEdge: a flow vector longer than the edge list
// puts flow on an edge the graph does not have.
func TestComputeDrainUnknownEdge(t *testing.T) {
	in := drainInput(3, graph.InputEdge{U: 0, V: 1, Cap: 1})
	if _, err := computeDrain(in, []int64{0, 0, 0, 0, 0, 0, 0, 1}); err == nil {
		t.Fatal("expected an unknown-edge error")
	}
}
