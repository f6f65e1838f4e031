package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/maxflow"
)

// randomInput builds a small random graph with random capacities and
// endpoints, suitable for quick properties.
func randomInput(rng *rand.Rand) *graph.Input {
	n := 6 + rng.Intn(14)
	m := n + rng.Intn(2*n)
	in, err := graphgen.ErdosRenyi(n, m, rng.Int63())
	if err != nil || len(in.Edges) == 0 {
		// Fall back to a path so the property function always has a
		// valid graph to check.
		return pathGraph(3, 1+rng.Int63n(5))
	}
	if rng.Intn(2) == 0 {
		graphgen.RandomCapacities(in, 1+rng.Int63n(8), rng.Int63())
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	return in
}

// TestQuickFFMREqualsDinic is the headline property: for arbitrary
// graphs, the distributed algorithm computes exactly the sequential
// oracle's max-flow value. One randomly chosen variant per case keeps
// the run fast while covering all five over the test corpus.
func TestQuickFFMREqualsDinic(t *testing.T) {
	if testing.Short() {
		t.Skip("quick property is slow")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		net, err := maxflow.FromInput(in)
		if err != nil {
			return false
		}
		want := maxflow.Dinic(net, int(in.Source), int(in.Sink))
		variant := allVariants()[rng.Intn(len(allVariants()))]
		res, err := Run(testCluster(2), in, Options{Variant: variant})
		if err != nil {
			t.Logf("seed %d variant %s: %v", seed, variant, err)
			return false
		}
		if res.MaxFlow != want {
			t.Logf("seed %d variant %s: got %d want %d", seed, variant, res.MaxFlow, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBSPEqualsDinic is the same property for the BSP translation.
func TestQuickBSPEqualsDinic(t *testing.T) {
	if testing.Short() {
		t.Skip("quick property is slow")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		net, err := maxflow.FromInput(in)
		if err != nil {
			return false
		}
		want := maxflow.Dinic(net, int(in.Source), int(in.Sink))
		res, err := RunBSP(in, BSPOptions{Workers: 1 + rng.Intn(8)})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.MaxFlow != want {
			t.Logf("seed %d: got %d want %d", seed, res.MaxFlow, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAccumulatorNeverOversubscribes: whatever mix of random paths
// is offered, the per-edge net grant stays within the edge's capacity in
// each direction.
func TestQuickAccumulatorNeverOversubscribes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const numEdges = 10
		capsFwd := make([]int64, numEdges)
		capsBwd := make([]int64, numEdges)
		flows := make([]int64, numEdges)
		for i := range capsFwd {
			capsFwd[i] = rng.Int63n(6)
			capsBwd[i] = rng.Int63n(6)
			// A consistent starting flow inside the envelope.
			if span := capsFwd[i] + capsBwd[i]; span > 0 {
				flows[i] = rng.Int63n(span+1) - capsBwd[i]
			}
		}
		var acc Accumulator
		for trial := 0; trial < 30; trial++ {
			// Build a random walk of 1-4 hops over the edge set.
			var p graph.ExcessPath
			hops := 1 + rng.Intn(4)
			for h := 0; h < hops; h++ {
				ei := rng.Intn(numEdges)
				fwd := rng.Intn(2) == 0
				pe := graph.PathEdge{
					ID:   graph.EdgeID(ei),
					From: graph.VertexID(h), To: graph.VertexID(h + 1),
				}
				if fwd {
					pe.Fwd, pe.Cap, pe.Flow = true, capsFwd[ei], flows[ei]
				} else {
					pe.Fwd, pe.Cap, pe.Flow = false, capsBwd[ei], -flows[ei]
				}
				p.Edges = append(p.Edges, pe)
			}
			acc.Accept(&p, graph.CapInf)
		}
		// Check the envelope: flow + grant within [-capBwd, capFwd].
		for id, d := range acc.Deltas() {
			after := flows[id] + d
			if after > capsFwd[id] || -after > capsBwd[id] {
				t.Logf("seed %d: edge %d flow %d + grant %d breaks [%d,%d]",
					seed, id, flows[id], d, -capsBwd[id], capsFwd[id])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUpdateVertexIdempotentOnEmptyDeltas: applying an empty delta
// table never changes a vertex (beyond dropping already-saturated
// paths, which is itself idempotent).
func TestQuickUpdateVertexIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := &graph.VertexValue{}
		for i := 0; i < rng.Intn(5); i++ {
			var p graph.ExcessPath
			for h := 0; h < 1+rng.Intn(4); h++ {
				p.Edges = append(p.Edges, graph.PathEdge{
					ID:   graph.EdgeID(rng.Intn(20)),
					From: graph.VertexID(h), To: graph.VertexID(h + 1),
					Cap: rng.Int63n(4), Flow: rng.Int63n(4), Fwd: rng.Intn(2) == 0,
				})
			}
			v.Su = append(v.Su, p)
		}
		updateVertex(v, &deltaSet{}, nil)
		before := graph.EncodeValue(v)
		updateVertex(v, &deltaSet{}, nil)
		after := graph.EncodeValue(v)
		return string(before) == string(after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
