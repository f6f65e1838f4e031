package core

import (
	"math/bits"
	"slices"

	"ffmr/internal/graph"
)

// This file holds the algorithmic heart of the MAP function (Fig. 3) as
// pure functions over a vertex value, shared between the mapper and — in
// schimmy mode — the reducer, which must recompute the master vertex's
// post-update state because the mapper no longer ships it through the
// shuffle. All functions are deterministic in (value, deltas), which is
// what makes that recomputation sound.

// deltaSet is an AugmentedEdges table as updateVertex consults it. Almost
// every edge a vertex holds is absent from a round's table, so a lookup
// first asks filter, a one-hash Bloom filter over the table's edge IDs,
// and goes to the map only when the edge's bit is set. A deltaSet without
// a filter (the zero value, or one wrapping a map directly) asks the map
// every time. A deltaSet is read-only once built, so every task of a job
// in one process shares one (runConfig.deltaSet); the scratch a lookup's
// caller needs (updateVertex's sigs) is each task's own.
type deltaSet struct {
	m      map[graph.EdgeID]int64
	filter []uint64
	shift  uint8
}

// newDeltaSet wraps m with a filter of at least 16 bits per edge, which
// lets through about one absent edge in sixteen.
func newDeltaSet(m map[graph.EdgeID]int64) *deltaSet {
	s := &deltaSet{m: m}
	if len(m) == 0 {
		return s
	}
	logBits := min(max(bits.Len(uint(len(m)))+4, 6), 32)
	s.filter = make([]uint64, 1<<(logBits-6))
	s.shift = uint8(32 - logBits)
	for id := range m {
		h := s.slot(id)
		s.filter[h>>6] |= 1 << (h & 63)
	}
	return s
}

// slot is id's filter bit: Fibonacci hashing, the top bits of a
// multiplicative hash.
func (s *deltaSet) slot(id graph.EdgeID) uint32 { return uint32(id) * 0x9e3779b1 >> s.shift }

// lookup returns the delta of edge id and whether the table holds one.
func (s *deltaSet) lookup(id graph.EdgeID) (int64, bool) {
	if s.filter != nil {
		if h := s.slot(id); s.filter[h>>6]&(1<<(h&63)) == 0 {
			return 0, false
		}
	}
	d, ok := s.m[id]
	return d, ok
}

// updateVertex applies the previous round's AugmentedEdges deltas to
// every edge held by the vertex (adjacency plus every hop of every
// stored excess path, MAP lines 1-3), then removes saturated excess
// paths (line 4) and clears FF5 sent flags whose recorded path no longer
// exists. It returns the number of paths dropped. sigs is the caller's
// scratch for signing paths, kept across calls; nil is a fresh one.
func updateVertex(v *graph.VertexValue, deltas *deltaSet, sigs *[]uint64) int {
	if len(deltas.m) > 0 {
		for i := range v.Eu {
			if d, ok := deltas.lookup(v.Eu[i].ID); ok {
				v.Eu[i].ApplyDelta(d)
			}
		}
		for _, paths := range [][]graph.ExcessPath{v.Su, v.Tu} {
			for pi := range paths {
				for ei := range paths[pi].Edges {
					pe := &paths[pi].Edges[ei]
					if d, ok := deltas.lookup(pe.ID); ok {
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
	if sigs == nil {
		sigs = new([]uint64)
	}
	if len(v.SentS) > 0 {
		*sigs = clearStaleSent(v.SentS, v.Su, *sigs)
	}
	if len(v.SentT) > 0 {
		*sigs = clearStaleSent(v.SentT, v.Tu, *sigs)
	}
	return dropped
}

// unchanged reports whether updateVertex and extendVertex would leave v as
// it is: v holds no excess path, no set sent flag and no edge with a
// delta in the table.
func unchanged(v *graph.VertexValue, deltas *deltaSet) bool {
	if len(v.Su) > 0 || len(v.Tu) > 0 {
		return false
	}
	for _, sent := range [][]uint64{v.SentS, v.SentT} {
		for _, sig := range sent {
			if sig != 0 {
				return false
			}
		}
	}
	if len(deltas.m) > 0 {
		for i := range v.Eu {
			if _, ok := deltas.lookup(v.Eu[i].ID); ok {
				return false
			}
		}
	}
	return true
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

// clearStaleSent zeroes every sent flag that names none of the live paths.
// It signs each live path once, at the first set flag, into sigs (returned
// for reuse), not once per flag.
func clearStaleSent(sent []uint64, live []graph.ExcessPath, sigs []uint64) []uint64 {
	signed := false
	for i, sig := range sent {
		if sig == 0 {
			continue
		}
		if !signed {
			sigs = sigs[:0]
			for pi := range live {
				sigs = append(sigs, live[pi].Signature())
			}
			signed = true
		}
		if !slices.Contains(sigs, sig) {
			sent[i] = 0
		}
	}
	return sigs
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
