package core

import (
	"ffmr/internal/graph"
)

// This file holds the algorithmic heart of the MAP function (Fig. 3) as
// pure functions over a vertex value, shared between the mapper and — in
// schimmy mode — the reducer, which must recompute the master vertex's
// post-update state because the mapper no longer ships it through the
// shuffle. All functions are deterministic in (value, deltas), which is
// what makes that recomputation sound.

// updateVertex applies the previous round's AugmentedEdges deltas to
// every edge held by the vertex (adjacency plus every hop of every
// stored excess path, MAP lines 1-3), then removes saturated excess
// paths (line 4) and clears FF5 sent flags whose recorded path no longer
// exists. It returns the number of paths dropped.
func updateVertex(v *graph.VertexValue, deltas map[graph.EdgeID]int64) int {
	if len(deltas) > 0 {
		for i := range v.Eu {
			if d, ok := deltas[v.Eu[i].ID]; ok {
				v.Eu[i].ApplyDelta(d)
			}
		}
		for _, paths := range [][]graph.ExcessPath{v.Su, v.Tu} {
			for pi := range paths {
				for ei := range paths[pi].Edges {
					pe := &paths[pi].Edges[ei]
					if d, ok := deltas[pe.ID]; ok {
						pe.ApplyDelta(d)
					}
				}
			}
		}
	}

	dropped := 0
	v.Su, dropped = removeSaturated(v.Su, dropped)
	v.Tu, dropped = removeSaturated(v.Tu, dropped)

	// FF5 bookkeeping: a sent flag names a stored path by signature; once
	// that path is gone the extension it backed is dead, so the slot
	// reopens and the path can be replaced next extension pass.
	if len(v.SentS) > 0 {
		clearStaleSent(v.SentS, v.Su)
	}
	if len(v.SentT) > 0 {
		clearStaleSent(v.SentT, v.Tu)
	}
	return dropped
}

func removeSaturated(paths []graph.ExcessPath, dropped int) ([]graph.ExcessPath, int) {
	// Compact by swapping, not copying: the slice's backing array is
	// reused across decoded records (FF4), so every slot must keep
	// exclusive ownership of its Edges array. A copying compaction would
	// leave two slots aliasing one array and a later in-place decode
	// would corrupt a neighbouring path.
	k := 0
	for i := range paths {
		if paths[i].Saturated() {
			dropped++
			continue
		}
		if i != k {
			paths[k], paths[i] = paths[i], paths[k]
		}
		k++
	}
	return paths[:k], dropped
}

func clearStaleSent(sent []uint64, live []graph.ExcessPath) {
	for i, sig := range sent {
		if sig == 0 {
			continue
		}
		found := false
		for pi := range live {
			if live[pi].Signature() == sig {
				found = true
				break
			}
		}
		if !found {
			sent[i] = 0
		}
	}
}

// extendConfig carries the knobs extension depends on.
type extendConfig struct {
	source       graph.VertexID
	sink         graph.VertexID
	sentTracking bool // FF5
}

// fragment is one intermediate record produced by extension: a vertex
// fragment destined for vertex To.
type fragment struct {
	To    graph.VertexID
	Value graph.VertexValue
}

// pickSource returns the first stored source excess path that can be
// extended to vertex to without forming a cycle, per MAP line 11, or
// nil. u is the owning vertex.
func pickSource(u graph.VertexID, su []graph.ExcessPath, to graph.VertexID) *graph.ExcessPath {
	for i := range su {
		p := &su[i]
		if to == u || p.Contains(to) {
			continue
		}
		if p.Saturated() {
			continue
		}
		return p
	}
	return nil
}

// pickSink is the sink-side analogue of pickSource.
func pickSink(u graph.VertexID, tu []graph.ExcessPath, to graph.VertexID) *graph.ExcessPath {
	for i := range tu {
		p := &tu[i]
		if to == u || p.Contains(to) {
			continue
		}
		if p.Saturated() {
			continue
		}
		return p
	}
	return nil
}

// extendVertex computes the excess-path extensions a vertex performs this
// round (MAP lines 9-16): for every edge with forward residual capacity,
// one stored source excess path is extended to the neighbour; for every
// edge with reverse residual capacity, one sink excess path is extended.
// With FF5 sent-tracking it consults and updates the SentS/SentT arrays
// to suppress re-sends of extensions that are still outstanding (paper
// Section IV-D). The updated sent arrays live in v.
//
// Every fragment is built in frag and handed to emit, which must be done
// with it on return: the next fragment overwrites it, reusing its path
// slot (FF4). A caller that wants a fresh object per fragment zeroes
// *frag in emit. Pass a nil emit to compute only the bookkeeping, which
// is what the schimmy reducer does; frag is then unused.
func extendVertex(u graph.VertexID, v *graph.VertexValue, cfg *extendConfig, frag *fragment, emit func(*fragment)) {
	if len(v.Su) > 0 {
		for i := range v.Eu {
			e := &v.Eu[i]
			if e.Residual() <= 0 {
				continue
			}
			if cfg.sentTracking && i < len(v.SentS) && v.SentS[i] != 0 {
				continue // an extension along this edge is still live
			}
			se := pickSource(u, v.Su, e.To)
			if se == nil {
				continue
			}
			if cfg.sentTracking && i < len(v.SentS) {
				v.SentS[i] = se.Signature()
			}
			if emit != nil {
				var slot *graph.ExcessPath
				frag.To = e.To
				frag.Value.Tu = frag.Value.Tu[:0]
				frag.Value.Su, slot = graph.NextSlot(frag.Value.Su[:0])
				slot.SetExtendSource(se, u, e)
				emit(frag)
			}
		}
	}
	if len(v.Tu) > 0 {
		for i := range v.Eu {
			e := &v.Eu[i]
			if e.RevResidual() <= 0 {
				continue
			}
			if cfg.sentTracking && i < len(v.SentT) && v.SentT[i] != 0 {
				continue
			}
			te := pickSink(u, v.Tu, e.To)
			if te == nil {
				continue
			}
			if cfg.sentTracking && i < len(v.SentT) {
				v.SentT[i] = te.Signature()
			}
			if emit != nil {
				var slot *graph.ExcessPath
				frag.To = e.To
				frag.Value.Su = frag.Value.Su[:0]
				frag.Value.Tu, slot = graph.NextSlot(frag.Value.Tu[:0])
				slot.SetExtendSink(te, u, e)
				emit(frag)
			}
		}
	}
}

// generateCandidates concatenates every stored (source, sink) excess-path
// pair into candidate augmenting paths (MAP lines 5-8 in FF1; moved into
// the REDUCE function from FF2 on) and appends them to cands, which it
// returns. local, which it resets first, filters candidates that already
// conflict from this vertex's local view; the final acceptance decision is
// made by the sink reducer (FF1) or aug_proc (FF2+). Candidates land in
// the slots of cands beyond its length (graph.NextSlot), so a caller that
// truncates and passes the same slab again reuses their storage (FF4).
func generateCandidates(v *graph.VertexValue, cands []graph.ExcessPath, local *Accumulator) []graph.ExcessPath {
	if len(v.Su) == 0 || len(v.Tu) == 0 {
		return cands
	}
	local.Reset()
	for si := range v.Su {
		for ti := range v.Tu {
			if len(v.Su[si].Edges)+len(v.Tu[ti].Edges) == 0 {
				continue // both seeds empty: s adjacent to nothing, degenerate
			}
			var cand *graph.ExcessPath
			cands, cand = graph.NextSlot(cands)
			cand.SetConcat(&v.Su[si], &v.Tu[ti])
			if local.Accept(cand, graph.CapInf) == 0 {
				cands = cands[:len(cands)-1] // the slot keeps its array for the next pair
			}
		}
	}
	return cands
}
