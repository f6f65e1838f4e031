package graphgen

import (
	"fmt"
	"math/rand"

	"ffmr/internal/graph"
)

// This file generates randomized update batches for the dynamic-graph
// experiments (internal/dynamic). Batches mimic how a social-network
// crawl evolves between snapshots: new friendships appear preferentially
// near existing ones (insert endpoints are found by a short random walk,
// so batches inherit the graph's small-world locality), while existing
// edges churn through deletion and capacity changes.

// UpdateProfile configures GenerateUpdates: the relative weight of each
// operation kind and the shape of generated edges.
type UpdateProfile struct {
	// InsertWeight..DecreaseWeight set the op mix; an op with weight zero
	// is never generated. Weights need not sum to anything particular.
	InsertWeight   int
	DeleteWeight   int
	IncreaseWeight int
	DecreaseWeight int
	// MaxCap bounds the capacity of inserted edges and the amount added
	// by a capacity increase.
	MaxCap int64
	// WalkLen is the length of the random walk that picks an inserted
	// edge's far endpoint, starting from its near endpoint. Short walks
	// keep inserts local, matching triadic closure in social graphs.
	WalkLen int
	// AvoidST excludes the super source and sink from all updates: their
	// tap edges keep their (infinite) capacities and inserts never touch
	// s or t. Experiments set this so batches perturb the interior of the
	// network rather than the artificial attachment points.
	AvoidST bool
}

// DefaultUpdateProfile is an even op mix with local inserts.
func DefaultUpdateProfile() UpdateProfile {
	return UpdateProfile{
		InsertWeight:   1,
		DeleteWeight:   1,
		IncreaseWeight: 1,
		DecreaseWeight: 1,
		MaxCap:         50,
		WalkLen:        3,
		AvoidST:        true,
	}
}

// edgeState tracks one edge's evolving capacity while a batch is being
// generated, so later updates of the batch see earlier ones.
type edgeState struct {
	u, v     graph.VertexID
	cap      int64
	directed bool
}

// GenerateUpdates builds a randomized batch of n updates against in,
// reproducible from seed. Deletions and capacity changes only target
// edges that currently carry capacity (an edge deleted earlier in the
// batch is not re-targeted), and inserted edges always connect vertices
// that already have at least one edge, near each other (see pickInsert).
// internal/dynamic accepts inserts at isolated vertices too; this
// generator does not produce them.
func GenerateUpdates(in *graph.Input, n int, p UpdateProfile, seed int64) ([]graph.Update, error) {
	if n < 0 {
		return nil, fmt.Errorf("graphgen: negative batch size %d", n)
	}
	total := p.InsertWeight + p.DeleteWeight + p.IncreaseWeight + p.DecreaseWeight
	if total <= 0 || p.InsertWeight < 0 || p.DeleteWeight < 0 || p.IncreaseWeight < 0 || p.DecreaseWeight < 0 {
		return nil, fmt.Errorf("graphgen: update profile needs non-negative weights with a positive sum")
	}
	if p.MaxCap <= 0 {
		return nil, fmt.Errorf("graphgen: update profile needs MaxCap > 0")
	}
	if p.WalkLen <= 0 {
		p.WalkLen = 1
	}

	rng := rand.New(rand.NewSource(seed))
	states := make([]edgeState, 0, len(in.Edges)+n)
	adj := make([][]graph.VertexID, in.NumVertices)
	for _, e := range in.Edges {
		states = append(states, edgeState{u: e.U, v: e.V, cap: e.Cap, directed: e.Directed})
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	avoid := func(v graph.VertexID) bool {
		return p.AvoidST && (v == in.Source || v == in.Sink)
	}

	// pickEdge draws a random edge satisfying ok, or reports failure
	// after a bounded number of draws (the graph may have run dry of
	// eligible edges for this op).
	pickEdge := func(ok func(*edgeState) bool) (graph.EdgeID, bool) {
		for try := 0; try < 64; try++ {
			id := graph.EdgeID(rng.Intn(len(states)))
			st := &states[id]
			if avoid(st.u) || avoid(st.v) || !ok(st) {
				continue
			}
			return id, true
		}
		return 0, false
	}

	// pickInsert finds a new edge's endpoints: a random vertex with an
	// edge, then a short random walk to a nearby distinct vertex.
	pickInsert := func() (u, v graph.VertexID, ok bool) {
		for try := 0; try < 64; try++ {
			u = graph.VertexID(rng.Intn(in.NumVertices))
			if avoid(u) || len(adj[u]) == 0 {
				continue
			}
			v = u
			for step := 0; step < p.WalkLen; step++ {
				v = adj[v][rng.Intn(len(adj[v]))]
			}
			if v == u || avoid(v) {
				continue
			}
			return u, v, true
		}
		return 0, 0, false
	}

	batch := make([]graph.Update, 0, n)
	for len(batch) < n {
		generated := false
		// Retry across ops: if the drawn op finds no eligible target,
		// fall through to the next draw rather than failing the batch.
		for attempt := 0; attempt < 16 && !generated; attempt++ {
			r := rng.Intn(total)
			switch {
			case r < p.InsertWeight:
				u, v, ok := pickInsert()
				if !ok {
					continue
				}
				cap := 1 + rng.Int63n(p.MaxCap)
				batch = append(batch, graph.InsertEdge(u, v, cap, false))
				states = append(states, edgeState{u: u, v: v, cap: cap})
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
				generated = true
			case r < p.InsertWeight+p.DeleteWeight:
				id, ok := pickEdge(func(st *edgeState) bool { return st.cap > 0 })
				if !ok {
					continue
				}
				batch = append(batch, graph.DeleteEdge(id))
				states[id].cap = 0
				generated = true
			case r < p.InsertWeight+p.DeleteWeight+p.IncreaseWeight:
				id, ok := pickEdge(func(st *edgeState) bool { return st.cap > 0 })
				if !ok {
					continue
				}
				st := &states[id]
				st.cap += 1 + rng.Int63n(p.MaxCap)
				batch = append(batch, graph.SetCapacity(id, st.cap, st.directed))
				generated = true
			default:
				id, ok := pickEdge(func(st *edgeState) bool { return st.cap > 1 })
				if !ok {
					continue
				}
				st := &states[id]
				st.cap = 1 + rng.Int63n(st.cap-1)
				batch = append(batch, graph.SetCapacity(id, st.cap, st.directed))
				generated = true
			}
		}
		if !generated {
			return nil, fmt.Errorf("graphgen: no eligible update targets after %d of %d updates", len(batch), n)
		}
	}
	return batch, nil
}
