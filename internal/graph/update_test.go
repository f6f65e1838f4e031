package graph

import "testing"

func updateBase() *Input {
	return &Input{
		NumVertices: 4,
		Source:      0,
		Sink:        3,
		Edges: []InputEdge{
			{U: 0, V: 1, Cap: 5},
			{U: 1, V: 2, Cap: 5},
			{U: 2, V: 3, Cap: 5, Directed: true},
		},
	}
}

func TestApplyUpdatesInsertAssignsNextID(t *testing.T) {
	in := updateBase()
	out, err := ApplyUpdates(in, []Update{
		InsertEdge(0, 2, 7, false),
		InsertEdge(1, 3, 9, true),
	})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if len(out.Edges) != 5 {
		t.Fatalf("got %d edges, want 5", len(out.Edges))
	}
	if e := out.Edges[3]; e.U != 0 || e.V != 2 || e.Cap != 7 || e.Directed {
		t.Errorf("edge 3 = %+v, want 0-2 cap 7 undirected", e)
	}
	if e := out.Edges[4]; e.U != 1 || e.V != 3 || e.Cap != 9 || !e.Directed {
		t.Errorf("edge 4 = %+v, want 1->3 cap 9 directed", e)
	}
	if len(in.Edges) != 3 {
		t.Errorf("input mutated: %d edges", len(in.Edges))
	}
}

func TestApplyUpdatesSetCapAndDelete(t *testing.T) {
	in := updateBase()
	out, err := ApplyUpdates(in, []Update{
		SetCapacity(1, 2, false),
		DeleteEdge(0),
	})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if out.Edges[1].Cap != 2 {
		t.Errorf("edge 1 cap = %d, want 2", out.Edges[1].Cap)
	}
	if out.Edges[0].Cap != 0 {
		t.Errorf("deleted edge 0 cap = %d, want 0", out.Edges[0].Cap)
	}
	if len(out.Edges) != 3 {
		t.Errorf("delete must keep the edge in place; got %d edges", len(out.Edges))
	}
	if in.Edges[0].Cap != 5 || in.Edges[1].Cap != 5 {
		t.Errorf("input mutated: %+v", in.Edges)
	}
}

func TestApplyUpdatesLaterUpdateSeesEarlierInsert(t *testing.T) {
	in := updateBase()
	out, err := ApplyUpdates(in, []Update{
		InsertEdge(0, 2, 7, false),
		SetCapacity(3, 1, false), // targets the edge inserted above
	})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if out.Edges[3].Cap != 1 {
		t.Errorf("in-batch inserted edge cap = %d, want 1", out.Edges[3].Cap)
	}
}

func TestApplyUpdatesValidation(t *testing.T) {
	cases := []struct {
		name  string
		batch []Update
	}{
		{"insert out of range", []Update{InsertEdge(0, 99, 1, false)}},
		{"insert self loop", []Update{InsertEdge(2, 2, 1, false)}},
		{"insert negative cap", []Update{InsertEdge(0, 2, -1, false)}},
		{"setcap unknown edge", []Update{SetCapacity(42, 1, false)}},
		{"setcap negative", []Update{SetCapacity(0, -3, false)}},
		{"insert cap above CapInf", []Update{InsertEdge(0, 2, CapInf+1, false)}},
		{"setcap above CapInf", []Update{SetCapacity(0, CapInf+1, true)}},
		{"unknown op", []Update{{Op: 99}}},
	}
	for _, tc := range cases {
		if _, err := ApplyUpdates(updateBase(), tc.batch); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// CapInf itself is a capacity: super source and sink edges carry it.
	if _, err := ApplyUpdates(updateBase(), []Update{InsertEdge(0, 2, CapInf, true), SetCapacity(0, CapInf, true)}); err != nil {
		t.Errorf("capacity CapInf rejected: %v", err)
	}
}
