// Package core implements the paper's contribution: the FFMR family of
// MapReduce-based Ford-Fulkerson maximum-flow algorithms (FF1 through
// FF5), the external stateful accumulator process aug_proc, the
// AugmentedEdges broadcast mechanism, the movement-counter termination
// rule and the maximality check that stops a run by default, and the
// MR-BFS baseline.
package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"ffmr/internal/graph"
)

// Accumulator greedily accepts non-conflicting excess/augmenting paths on
// a first-come-first-served basis (paper Section III-C). It tracks, per
// edge, the net canonical-orientation flow it has tentatively granted to
// accepted paths this round, and rejects any path whose acceptance would
// violate a capacity constraint given those grants.
//
// The zero value is an empty accumulator ready for use. An accumulator
// keeps its grant table and Feasible's scratch across Reset, so one that
// is reset and refilled per reduce group stops allocating.
type Accumulator struct {
	pending map[graph.EdgeID]int64
	// uses is Feasible's scratch: the hops of the path under test, ordered
	// by edge ID so that the uses of one edge are adjacent.
	uses []edgeUse
}

// edgeUse names one hop of a path by the edge it traverses.
type edgeUse struct {
	id  graph.EdgeID
	hop int32
}

// Feasible returns the largest flow delta that could be pushed along p
// given the current grants, or 0 if the path conflicts. The computation
// handles non-simple paths (a concatenated augmenting path may traverse
// the same edge in both directions; such uses net out, as residual-graph
// semantics require).
func (a *Accumulator) Feasible(p *graph.ExcessPath) int64 {
	if len(p.Edges) == 0 {
		return 0
	}
	uses := slices.Grow(a.uses[:0], len(p.Edges))
	for i := range p.Edges {
		uses = append(uses, edgeUse{id: p.Edges[i].ID, hop: int32(i)})
	}
	a.uses = uses
	slices.SortFunc(uses, func(x, y edgeUse) int { return cmp.Compare(x.id, y.id) })

	best := graph.CapInf
	for lo := 0; lo < len(uses); {
		id := uses[lo].id
		// Net canonical usage of this edge within the path.
		var net int64
		hi := lo
		for ; hi < len(uses) && uses[hi].id == id; hi++ {
			if p.Edges[uses[hi].hop].Fwd {
				net++
			} else {
				net--
			}
		}
		granted := a.pending[id]
		for _, u := range uses[lo:hi] {
			pe := &p.Edges[u.hop]
			sign := int64(1)
			if !pe.Fwd {
				sign = -1
			}
			// m: how much one unit of flow along the whole path consumes of
			// this hop's directional capacity. slack: residual in the
			// traversal direction after previously granted deltas.
			m := sign * net
			if m <= 0 {
				continue // net flow runs the other way; this hop only gains slack
			}
			slack := pe.Cap - pe.Flow - sign*granted
			if slack <= 0 {
				return 0
			}
			if d := slack / m; d < best {
				best = d
			}
		}
		lo = hi
	}
	if best <= 0 {
		return 0
	}
	return best
}

// Accept attempts to accept path p, returning the granted flow delta
// (0 means rejected). limit caps the granted delta; pass graph.CapInf for
// "as much as the path allows" (augmenting-path acceptance) or 1 for
// unit-granularity reservations (excess-path storage, where the stored
// paths only need to be mutually conflict-free).
func (a *Accumulator) Accept(p *graph.ExcessPath, limit int64) int64 {
	d := a.Feasible(p)
	if d <= 0 {
		return 0
	}
	if d > limit {
		d = limit
	}
	if a.pending == nil {
		a.pending = make(map[graph.EdgeID]int64)
	}
	for i := range p.Edges {
		if p.Edges[i].Fwd {
			a.pending[p.Edges[i].ID] += d
		} else {
			a.pending[p.Edges[i].ID] -= d
		}
	}
	return d
}

// Len returns the number of edges with outstanding grants.
func (a *Accumulator) Len() int { return len(a.pending) }

// Deltas returns the accumulated per-edge canonical flow deltas — the
// contents of the round's AugmentedEdges table.
func (a *Accumulator) Deltas() map[graph.EdgeID]int64 {
	out := make(map[graph.EdgeID]int64, len(a.pending))
	for id, d := range a.pending {
		if d != 0 {
			out[id] = d
		}
	}
	return out
}

// Reset clears all grants. An empty map is left alone: clearing one costs
// its capacity, and a reducer's filters keep the capacity of the largest
// group they saw.
func (a *Accumulator) Reset() {
	if len(a.pending) > 0 {
		clear(a.pending)
	}
}

// EncodeDeltas serializes an AugmentedEdges table deterministically
// (sorted by edge ID) for distribution as a DFS side file, as the paper
// distributes "a list of the augmented edges and its delta flow" to all
// mappers of the next round.
func EncodeDeltas(deltas map[graph.EdgeID]int64) []byte {
	ids := make([]graph.EdgeID, 0, len(deltas))
	for id := range deltas {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 0, 6*len(ids))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendVarint(buf, deltas[id])
	}
	return buf
}

// DecodeDeltas parses an AugmentedEdges side file.
func DecodeDeltas(data []byte) (map[graph.EdgeID]int64, error) {
	out := make(map[graph.EdgeID]int64)
	off := 0
	for off < len(data) {
		id, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("core: corrupt AugmentedEdges id at offset %d", off)
		}
		off += n
		d, n := binary.Varint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("core: corrupt AugmentedEdges delta at offset %d", off)
		}
		off += n
		out[graph.EdgeID(id)] = d
	}
	return out, nil
}
