package graph

import (
	"slices"
	"testing"
)

func TestEdgeResidual(t *testing.T) {
	tests := []struct {
		name     string
		edge     Edge
		fwd, rev int64
	}{
		{"fresh undirected", Edge{Cap: 5, RevCap: 5}, 5, 5},
		{"half used", Edge{Cap: 5, RevCap: 5, Flow: 3}, 2, 8},
		{"saturated", Edge{Cap: 5, RevCap: 5, Flow: 5}, 0, 10},
		{"reverse flow", Edge{Cap: 5, RevCap: 5, Flow: -2}, 7, 3},
		{"directed fresh", Edge{Cap: 4, RevCap: 0}, 4, 0},
		{"directed used", Edge{Cap: 4, RevCap: 0, Flow: 4}, 0, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.edge.Residual(); got != tc.fwd {
				t.Errorf("Residual() = %d, want %d", got, tc.fwd)
			}
			if got := tc.edge.RevResidual(); got != tc.rev {
				t.Errorf("RevResidual() = %d, want %d", got, tc.rev)
			}
		})
	}
}

func TestEdgeApplyDelta(t *testing.T) {
	fwd := Edge{Cap: 10, Fwd: true}
	fwd.ApplyDelta(3)
	if fwd.Flow != 3 {
		t.Errorf("forward half flow = %d, want 3", fwd.Flow)
	}
	bwd := Edge{Cap: 10, Fwd: false}
	bwd.ApplyDelta(3)
	if bwd.Flow != -3 {
		t.Errorf("backward half flow = %d, want -3", bwd.Flow)
	}
}

// makePath builds a simple path over consecutive vertices with the given
// per-hop capacity and flow.
func makePath(startVertex VertexID, startEdge EdgeID, hops int, cap, flow int64) ExcessPath {
	var p ExcessPath
	for i := 0; i < hops; i++ {
		p.Edges = append(p.Edges, PathEdge{
			ID:   startEdge + EdgeID(i),
			From: startVertex + VertexID(i),
			To:   startVertex + VertexID(i+1),
			Cap:  cap,
			Flow: flow,
			Fwd:  true,
		})
	}
	return p
}

func TestPathResidualAndSaturation(t *testing.T) {
	p := makePath(0, 0, 3, 5, 2)
	if got := p.Residual(); got != 3 {
		t.Errorf("Residual = %d, want 3", got)
	}
	if p.Saturated() {
		t.Error("unsaturated path reported saturated")
	}
	p.Edges[1].Flow = 5
	if !p.Saturated() {
		t.Error("saturated hop not detected")
	}

	empty := ExcessPath{}
	if empty.Residual() != CapInf {
		t.Errorf("empty path residual = %d, want CapInf", empty.Residual())
	}
	if empty.Saturated() {
		t.Error("empty path reported saturated")
	}
}

func TestPathResidualRepeatedEdge(t *testing.T) {
	// A walk that uses the same edge twice in the same direction must
	// halve the per-use residual.
	p := ExcessPath{Edges: []PathEdge{
		{ID: 1, From: 0, To: 1, Cap: 5, Fwd: true},
		{ID: 2, From: 1, To: 0, Cap: 9, Fwd: true},
		{ID: 1, From: 0, To: 1, Cap: 5, Fwd: true},
	}}
	if got := p.Residual(); got != 2 {
		t.Errorf("Residual = %d, want 2 (5 cap / 2 uses)", got)
	}
}

func TestPathContainsHeadTail(t *testing.T) {
	p := makePath(10, 0, 3, 1, 0)
	if p.Head() != 10 || p.Tail() != 13 {
		t.Errorf("head/tail = %d/%d, want 10/13", p.Head(), p.Tail())
	}
	for v := VertexID(10); v <= 13; v++ {
		if !p.Contains(v) {
			t.Errorf("Contains(%d) = false, want true", v)
		}
	}
	if p.Contains(14) || p.Contains(9) {
		t.Error("Contains reported vertex not on path")
	}
}

func TestExtendSource(t *testing.T) {
	p := makePath(0, 0, 2, 3, 1)
	e := Edge{To: 9, ID: 7, Flow: 1, Cap: 4, RevCap: 4, Fwd: false}
	var q ExcessPath
	q.SetExtendSource(&p, 2, &e)
	if q.Len() != 3 {
		t.Fatalf("extended length = %d, want 3", q.Len())
	}
	last := q.Edges[2]
	if last.From != 2 || last.To != 9 || last.ID != 7 || last.Fwd {
		t.Errorf("bad extension hop: %+v", last)
	}
	if last.Flow != 1 || last.Cap != 4 {
		t.Errorf("extension hop flow/cap = %d/%d, want 1/4", last.Flow, last.Cap)
	}
	// The original path is unchanged (copy semantics).
	if p.Len() != 2 {
		t.Errorf("original mutated: len=%d", p.Len())
	}
}

func TestExtendSink(t *testing.T) {
	p := makePath(5, 0, 2, 3, 0) // 5 -> 6 -> 7
	e := Edge{To: 4, ID: 9, Flow: 2, Cap: 6, RevCap: 8, Fwd: true}
	var q ExcessPath
	q.SetExtendSink(&p, 5, &e)
	if q.Len() != 3 {
		t.Fatalf("extended length = %d, want 3", q.Len())
	}
	first := q.Edges[0]
	if first.From != 4 || first.To != 5 {
		t.Errorf("extension hop endpoints = %d->%d, want 4->5", first.From, first.To)
	}
	if first.Flow != -2 || first.Cap != 8 || first.Fwd {
		t.Errorf("mirrored hop = %+v, want flow=-2 cap=8 fwd=false", first)
	}
	if q.Head() != 4 || q.Tail() != 7 {
		t.Errorf("head/tail = %d/%d, want 4/7", q.Head(), q.Tail())
	}
}

func TestConcat(t *testing.T) {
	src := makePath(0, 0, 2, 1, 0)  // 0 -> 1 -> 2
	snk := makePath(2, 10, 3, 1, 0) // 2 -> 3 -> 4 -> 5
	var aug ExcessPath
	aug.SetConcat(&src, &snk)
	if aug.Len() != 5 {
		t.Fatalf("concat length = %d, want 5", aug.Len())
	}
	if aug.Head() != 0 || aug.Tail() != 5 {
		t.Errorf("head/tail = %d/%d, want 0/5", aug.Head(), aug.Tail())
	}
}

// TestSetMethodsReuseSlot fills a slot that still holds a longer path:
// each Set method must leave exactly what it builds in an empty slot, in
// the array the slot already owned.
func TestSetMethodsReuseSlot(t *testing.T) {
	src := &ExcessPath{Edges: []PathEdge{
		{ID: 1, From: 0, To: 1, Cap: 2, Fwd: true},
		{ID: 2, From: 1, To: 2, Flow: 1, Cap: 3},
	}}
	snk := &ExcessPath{Edges: []PathEdge{{ID: 7, From: 3, To: 9, Cap: 1, Fwd: true}}}
	e := &Edge{To: 3, ID: 5, Flow: 1, Cap: 4, RevCap: 6, Fwd: true}
	stale := make([]PathEdge, 8)
	for i := range stale {
		stale[i] = PathEdge{ID: 99, From: 99, To: 99, Flow: 99, Cap: 99, Fwd: true}
	}
	sets := map[string]func(p *ExcessPath){
		"Set":             func(p *ExcessPath) { p.Set(src) },
		"SetExtendSource": func(p *ExcessPath) { p.SetExtendSource(src, 2, e) },
		"SetExtendSink":   func(p *ExcessPath) { p.SetExtendSink(snk, 3, e) },
		"SetConcat":       func(p *ExcessPath) { p.SetConcat(src, snk) },
	}
	for name, set := range sets {
		var fresh ExcessPath
		set(&fresh)
		slot := ExcessPath{Edges: slices.Clone(stale)}
		set(&slot)
		if !slices.Equal(slot.Edges, fresh.Edges) {
			t.Errorf("%s into a used slot = %v, into an empty one %v", name, slot.Edges, fresh.Edges)
		}
		if cap(slot.Edges) != len(stale) {
			t.Errorf("%s reallocated a slot that was large enough", name)
		}
	}
}

// TestNextSlotKeepsArraysExclusive refills a truncated path list: every
// slot must come back empty with the array it owned, and no two slots
// may ever share one.
func TestNextSlotKeepsArraysExclusive(t *testing.T) {
	var ps []ExcessPath
	var slot *ExcessPath
	for i := 0; i < 5; i++ {
		ps, slot = NextSlot(ps)
		slot.Edges = append(slot.Edges, make([]PathEdge, i+1)...)
	}
	owned := make([]*PathEdge, len(ps))
	for i := range ps {
		owned[i] = &ps[i].Edges[0]
	}
	ps = ps[:0]
	for i := range owned {
		ps, slot = NextSlot(ps)
		if len(slot.Edges) != 0 {
			t.Fatalf("slot %d came back with %d hops", i, len(slot.Edges))
		}
		if got := &slot.Edges[:1][0]; got != owned[i] {
			t.Fatalf("slot %d lost its array", i)
		}
	}
}

func TestSignature(t *testing.T) {
	a := makePath(0, 0, 3, 1, 0)
	b := makePath(0, 0, 3, 1, 0)
	if a.Signature() != b.Signature() {
		t.Error("identical paths have different signatures")
	}
	// Flow and capacity changes must not change the signature (the FF5
	// sent-flag survives flow updates).
	b.Edges[0].Flow = 1
	if a.Signature() != b.Signature() {
		t.Error("flow change altered signature")
	}
	// A direction flip must change it.
	b.Edges[0].Fwd = false
	if a.Signature() == b.Signature() {
		t.Error("direction flip did not alter signature")
	}
	c := makePath(0, 5, 3, 1, 0) // different edge IDs
	if a.Signature() == c.Signature() {
		t.Error("different edges did not alter signature")
	}
	var empty ExcessPath
	if empty.Signature() == a.Signature() {
		t.Error("empty path collides with non-empty path")
	}
}

func TestVertexValueMasterAndReset(t *testing.T) {
	var v VertexValue
	if v.IsMaster() {
		t.Error("empty value is a master")
	}
	v.Eu = append(v.Eu, Edge{To: 1})
	if !v.IsMaster() {
		t.Error("value with edges is not a master")
	}
	v.Su = append(v.Su, ExcessPath{})
	v.SentS = append(v.SentS, 7)
	v.Reset()
	if len(v.Su) != 0 || len(v.Eu) != 0 || len(v.SentS) != 0 {
		t.Error("Reset did not clear lengths")
	}
	if cap(v.Eu) == 0 {
		t.Error("Reset discarded capacity")
	}
}

func TestInputValidate(t *testing.T) {
	valid := Input{NumVertices: 3, Source: 0, Sink: 2,
		Edges: []InputEdge{{U: 0, V: 1, Cap: 1}, {U: 1, V: 2, Cap: 1}, {U: 0, V: 2, Cap: CapInf, Directed: true}}}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}

	tests := []struct {
		name string
		in   Input
	}{
		{"no vertices", Input{}},
		{"source out of range", Input{NumVertices: 2, Source: 5, Sink: 1}},
		{"sink out of range", Input{NumVertices: 2, Source: 0, Sink: 5}},
		{"source equals sink", Input{NumVertices: 2, Source: 1, Sink: 1}},
		{"edge out of range", Input{NumVertices: 2, Source: 0, Sink: 1,
			Edges: []InputEdge{{U: 0, V: 9, Cap: 1}}}},
		{"self loop", Input{NumVertices: 2, Source: 0, Sink: 1,
			Edges: []InputEdge{{U: 0, V: 0, Cap: 1}}}},
		{"negative capacity", Input{NumVertices: 2, Source: 0, Sink: 1,
			Edges: []InputEdge{{U: 0, V: 1, Cap: -1}}}},
		{"capacity above CapInf", Input{NumVertices: 2, Source: 0, Sink: 1,
			Edges: []InputEdge{{U: 0, V: 1, Cap: CapInf + 1}}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.in.Validate(); err == nil {
				t.Error("invalid graph accepted")
			}
		})
	}
}

func TestArcIndex(t *testing.T) {
	// Vertex 1 is the tail of arcs of edges 0, 1, 3 and 4, in both
	// directions; vertex 4 has no edge.
	in := &Input{NumVertices: 5, Source: 0, Sink: 3, Edges: []InputEdge{
		{U: 0, V: 1, Cap: 1},
		{U: 2, V: 1, Cap: 1, Directed: true},
		{U: 0, V: 2, Cap: 1},
		{U: 1, V: 3, Cap: 1},
		{U: 3, V: 1, Cap: 1},
	}}
	start, arcs := ArcIndex(in)
	if len(start) != in.NumVertices+1 || len(arcs) != 2*len(in.Edges) {
		t.Fatalf("len(start) %d, len(arcs) %d", len(start), len(arcs))
	}
	wantDeg := []int32{2, 4, 2, 2, 0}
	for u, d := range wantDeg {
		run := arcs[start[u]:start[u+1]]
		if int32(len(run)) != d {
			t.Errorf("vertex %d has %d arcs, want %d", u, len(run), d)
		}
		for j, a := range run {
			if j > 0 && run[j-1]>>1 >= a>>1 {
				t.Errorf("vertex %d: arcs %v not in ascending edge-ID order", u, run)
			}
			// Arc 2i leaves edge i's U, arc 2i+1 its V.
			e := in.Edges[a>>1]
			tail := e.U
			if a&1 == 1 {
				tail = e.V
			}
			if tail != VertexID(u) {
				t.Errorf("arc %d listed at vertex %d, but its tail is %d", a, u, tail)
			}
		}
	}
	if got, want := arcs[start[1]:start[2]], []int32{1, 3, 6, 9}; !slices.Equal(got, want) {
		t.Errorf("vertex 1 arcs %v, want %v", got, want)
	}
}
