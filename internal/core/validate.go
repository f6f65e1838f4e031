package core

import (
	"fmt"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
)

// This file validates a finished run's final residual network against
// the flow-network axioms of Section II-A: capacity constraint, skew
// symmetry, and flow conservation. Validation reads the last round's
// vertex records from the DFS — every run leaves them there, since the
// driver deletes only round r-1's inputs once round r succeeds — and is
// used by the test suite as a whole-system invariant check; it is not on
// the data path.

// Validate checks the final residual network of a completed run.
//
// It verifies, for every vertex record:
//   - capacity constraint: flow <= capacity on every half-edge;
//   - skew symmetry: the two halves of every edge carry opposite flows;
//   - flow conservation: net flow out of every vertex other than the
//     source and sink is zero;
//   - flow value: net flow out of the source equals res.MaxFlow (only
//     when the run converged);
//   - flow vector: res.Flows has one entry per input edge, and every
//     edge's records carry exactly that flow.
func Validate(fs *dfs.FS, in *graph.Input, opts Options, res *Result) error {
	opts.applyDefaults(1)
	prefix := roundPrefix(opts.PathPrefix, res.Rounds)
	verts, err := ReadVertices(fs, prefix)
	if err != nil {
		return fmt.Errorf("core: validate: %w", err)
	}
	if len(verts) == 0 {
		return fmt.Errorf("core: validate: no vertex records under %q", prefix)
	}

	// The final round's records predate the application of that round's
	// accepted deltas, which wait in the pending delta file (empty under
	// the quiescent rule, whose final round accepts nothing).
	deltaFile := deltaName(opts.PathPrefix, res.Rounds+1)
	if fs.Exists(deltaFile) {
		data, err := fs.ReadFile(deltaFile)
		if err != nil {
			return err
		}
		table, err := DecodeDeltas(data)
		if err != nil {
			return err
		}
		deltas := newDeltaSet(table)
		var sigs []uint64
		for _, v := range verts {
			updateVertex(v, deltas, &sigs)
		}
	}

	type halfSeen struct {
		flow int64
		n    int
	}
	edges := make(map[graph.EdgeID]halfSeen)
	netOut := make(map[graph.VertexID]int64, len(verts))

	for u, v := range verts {
		for i := range v.Eu {
			e := &v.Eu[i]
			if e.Flow > e.Cap {
				return fmt.Errorf("core: validate: vertex %d edge %d violates capacity: flow %d > cap %d",
					u, e.ID, e.Flow, e.Cap)
			}
			canonical := e.Flow
			if !e.Fwd {
				canonical = -canonical
			}
			hs := edges[e.ID]
			if hs.n == 1 && hs.flow != canonical {
				return fmt.Errorf("core: validate: edge %d violates skew symmetry: %d vs %d",
					e.ID, hs.flow, canonical)
			}
			hs.flow = canonical
			hs.n++
			edges[e.ID] = hs
			netOut[u] += e.Flow
		}
	}
	if len(res.Flows) != len(in.Edges) {
		return fmt.Errorf("core: validate: result has %d flows for %d edges", len(res.Flows), len(in.Edges))
	}
	if len(edges) != len(in.Edges) {
		return fmt.Errorf("core: validate: records hold %d edges, the input %d", len(edges), len(in.Edges))
	}
	for id, hs := range edges {
		if hs.n != 2 {
			return fmt.Errorf("core: validate: edge %d has %d halves", id, hs.n)
		}
		if int(id) >= len(res.Flows) {
			return fmt.Errorf("core: validate: edge %d out of range (m=%d)", id, len(res.Flows))
		}
		if hs.flow != res.Flows[id] {
			return fmt.Errorf("core: validate: edge %d: result flow %d, records %d", id, res.Flows[id], hs.flow)
		}
	}
	for u, out := range netOut {
		if u == in.Source || u == in.Sink {
			continue
		}
		if out != 0 {
			return fmt.Errorf("core: validate: vertex %d violates conservation by %d", u, out)
		}
	}
	if res.Converged && netOut[in.Source] != res.MaxFlow {
		return fmt.Errorf("core: validate: source net flow %d != reported max flow %d",
			netOut[in.Source], res.MaxFlow)
	}
	if res.Converged && netOut[in.Sink] != -res.MaxFlow {
		return fmt.Errorf("core: validate: sink net flow %d != -max flow %d",
			netOut[in.Sink], res.MaxFlow)
	}
	return nil
}

// CheckAssignment verifies that flows is a feasible s-t flow of the
// given value on in: flows[i] is the flow on in.Edges[i] in canonical
// (U -> V) orientation, negative for reverse flow on an undirected edge.
// It checks the same axioms as Validate — capacity in both directions,
// conservation at every vertex except source and sink, and net source
// outflow (and sink inflow) equal to value — but against an in-memory
// assignment instead of persisted records. Alternative engines and the
// prep reduction use it as their proof-carrying check: a flow that
// passes is feasible, and one whose value matches a known maximum is
// itself maximum.
func CheckAssignment(in *graph.Input, flows []int64, value int64) error {
	if len(flows) != len(in.Edges) {
		return fmt.Errorf("core: check: %d flows for %d edges", len(flows), len(in.Edges))
	}
	net := make(map[graph.VertexID]int64)
	for i := range in.Edges {
		e := &in.Edges[i]
		f := flows[i]
		rev := e.Cap
		if e.Directed {
			rev = 0
		}
		if f > e.Cap {
			return fmt.Errorf("core: check: edge %d flow %d exceeds capacity %d", i, f, e.Cap)
		}
		if -f > rev {
			return fmt.Errorf("core: check: edge %d reverse flow %d exceeds reverse capacity %d", i, -f, rev)
		}
		net[e.U] += f
		net[e.V] -= f
	}
	for u, out := range net {
		if u == in.Source || u == in.Sink {
			continue
		}
		if out != 0 {
			return fmt.Errorf("core: check: vertex %d violates conservation by %d", u, out)
		}
	}
	if net[in.Source] != value {
		return fmt.Errorf("core: check: source net flow %d != claimed value %d", net[in.Source], value)
	}
	if net[in.Sink] != -value {
		return fmt.Errorf("core: check: sink net flow %d != -value %d", net[in.Sink], value)
	}
	return nil
}
