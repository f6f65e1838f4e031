package graph

import "fmt"

// This file defines the dynamic-graph update model consumed by
// internal/dynamic: a batch of edge updates applied to a completed run's
// Input, from which both the warm-restart machinery and the from-scratch
// oracles derive the updated graph. Updates never renumber edges: an
// insert is assigned the next free EdgeID (its index in the updated edge
// list) and a delete only zeroes capacity, leaving the edge in place so
// EdgeIDs stored in persisted vertex records stay valid.

// UpdateOp identifies the kind of one edge update.
type UpdateOp uint8

const (
	// UpdateInsert adds a new edge between two existing vertices.
	UpdateInsert UpdateOp = iota + 1
	// UpdateSetCap replaces an existing edge's capacity, covering
	// capacity increases, decreases, and — with capacity zero — logical
	// deletion.
	UpdateSetCap
)

// String names the operation.
func (op UpdateOp) String() string {
	switch op {
	case UpdateInsert:
		return "insert"
	case UpdateSetCap:
		return "set-cap"
	default:
		return fmt.Sprintf("UpdateOp(%d)", uint8(op))
	}
}

// Update is one edge update. Exactly the fields relevant to Op are used:
// Edge for UpdateInsert; ID, Cap and Directed for UpdateSetCap. The
// capacity orientation mirrors InputEdge: an undirected update sets Cap
// in both directions, a directed one sets Cap forward (U->V as the edge
// was inserted) and zero backward.
type Update struct {
	Op UpdateOp

	// Edge is the inserted edge (UpdateInsert).
	Edge InputEdge

	// ID targets an existing edge (UpdateSetCap). Within one batch an
	// update may target an edge inserted by an earlier update of the same
	// batch.
	ID EdgeID
	// Cap is the new capacity; zero deletes the edge logically.
	Cap int64
	// Directed selects the updated edge's capacity orientation.
	Directed bool
}

// InsertEdge builds an insert update.
func InsertEdge(u, v VertexID, cap int64, directed bool) Update {
	return Update{Op: UpdateInsert, Edge: InputEdge{U: u, V: v, Cap: cap, Directed: directed}}
}

// SetCapacity builds a capacity-change update.
func SetCapacity(id EdgeID, cap int64, directed bool) Update {
	return Update{Op: UpdateSetCap, ID: id, Cap: cap, Directed: directed}
}

// DeleteEdge builds a logical-deletion update: the edge keeps its ID but
// carries no capacity in either direction.
func DeleteEdge(id EdgeID) Update {
	return Update{Op: UpdateSetCap, ID: id, Cap: 0}
}

// ApplyUpdates applies a batch of updates to in, returning a deep copy
// with the batch folded in; in itself is not modified. Updates apply in
// order, so later updates see earlier inserts. Inserted edges are
// appended, making EdgeID == index hold for the updated list exactly as
// HalfEdges establishes it for a cold run.
func ApplyUpdates(in *Input, batch []Update) (*Input, error) {
	out := &Input{
		NumVertices: in.NumVertices,
		Edges:       make([]InputEdge, len(in.Edges), len(in.Edges)+len(batch)),
		Source:      in.Source,
		Sink:        in.Sink,
	}
	copy(out.Edges, in.Edges)
	for i := range batch {
		u := &batch[i]
		switch u.Op {
		case UpdateInsert:
			e := u.Edge
			if int(e.U) >= in.NumVertices || int(e.V) >= in.NumVertices {
				return nil, fmt.Errorf("graph: update %d inserts edge (%d,%d) out of range (n=%d)",
					i, e.U, e.V, in.NumVertices)
			}
			if e.U == e.V {
				return nil, fmt.Errorf("graph: update %d inserts a self-loop at %d", i, e.U)
			}
			if e.Cap < 0 || e.Cap > CapInf {
				return nil, fmt.Errorf("graph: update %d inserts capacity %d outside [0, CapInf]", i, e.Cap)
			}
			out.Edges = append(out.Edges, e)
		case UpdateSetCap:
			if int(u.ID) >= len(out.Edges) {
				return nil, fmt.Errorf("graph: update %d targets unknown edge %d", i, u.ID)
			}
			if u.Cap < 0 || u.Cap > CapInf {
				return nil, fmt.Errorf("graph: update %d sets capacity %d outside [0, CapInf]", i, u.Cap)
			}
			out.Edges[u.ID].Cap = u.Cap
			out.Edges[u.ID].Directed = u.Directed
		default:
			return nil, fmt.Errorf("graph: update %d has unknown op %d", i, u.Op)
		}
	}
	return out, nil
}
