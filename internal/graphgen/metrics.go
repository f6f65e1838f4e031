package graphgen

import (
	"math/rand"
	"sort"

	"ffmr/internal/graph"
)

// Small-world diagnostics. The paper's premise is that real graphs have
// small-world properties — low diameter ("the length of the shortest
// path between any two vertices is usually small") and robustness of
// that diameter as the residual graph changes. These metrics let tests
// and tools verify that generated graphs actually have the structure
// the algorithm exploits, and quantify the paper's estimate of D
// ("between 7 to 14 for FB6 using a MR-based BFS").

// Metrics summarizes a graph's small-world statistics.
type Metrics struct {
	Vertices      int
	Edges         int
	AverageDegree float64
	MaxDegree     int
	// EstimatedDiameter is the maximum BFS eccentricity over sampled
	// start vertices (a lower bound on the true diameter that converges
	// quickly on small-world graphs).
	EstimatedDiameter int
	// AveragePathLength is the mean shortest-path length over sampled
	// source vertices (Watts & Strogatz's L).
	AveragePathLength float64
	// Clustering is the mean local clustering coefficient over sampled
	// vertices (Watts & Strogatz's C).
	Clustering float64
	// LargestComponent is the fraction of vertices reachable from the
	// highest-degree vertex.
	LargestComponent float64
}

// Measure computes small-world metrics, sampling the expensive parts
// (BFS eccentricities and local clustering) at the given sample count.
func Measure(in *graph.Input, samples int, seed int64) Metrics {
	if samples <= 0 {
		samples = 16
	}
	rng := rand.New(rand.NewSource(seed))
	adj := graph.Adjacency(in)
	deg := Degrees(in)

	m := Metrics{Vertices: in.NumVertices, Edges: len(in.Edges)}
	maxDegV := 0
	var degSum int
	for v, d := range deg {
		degSum += d
		if d > m.MaxDegree {
			m.MaxDegree = d
			maxDegV = v
		}
	}
	if in.NumVertices > 0 {
		m.AverageDegree = float64(degSum) / float64(in.NumVertices)
	}

	// Component coverage from the biggest hub.
	dist := graph.HopDistances(adj, graph.VertexID(maxDegV))
	reached := 0
	for _, d := range dist {
		if d >= 0 {
			reached++
		}
	}
	if in.NumVertices > 0 {
		m.LargestComponent = float64(reached) / float64(in.NumVertices)
	}

	// Sampled eccentricities and path lengths.
	var pathSum, pathCnt float64
	for s := 0; s < samples; s++ {
		src := graph.VertexID(rng.Intn(in.NumVertices))
		d := graph.HopDistances(adj, src)
		for _, x := range d {
			if x > 0 {
				pathSum += float64(x)
				pathCnt++
				if int(x) > m.EstimatedDiameter {
					m.EstimatedDiameter = int(x)
				}
			}
		}
	}
	if pathCnt > 0 {
		m.AveragePathLength = pathSum / pathCnt
	}

	// Sampled local clustering: fraction of a vertex's neighbour pairs
	// that are themselves connected.
	var cSum float64
	var cCnt int
	isNbr := func(a, b graph.VertexID) bool {
		ns := adj[a]
		i := sort.Search(len(ns), func(i int) bool { return ns[i] >= b })
		return i < len(ns) && ns[i] == b
	}
	for s := 0; s < samples*4; s++ {
		v := graph.VertexID(rng.Intn(in.NumVertices))
		ns := adj[v]
		if len(ns) < 2 {
			continue
		}
		links := 0
		pairs := 0
		// Cap the per-vertex work on hubs by sampling neighbour pairs.
		maxPairs := 64
		for p := 0; p < maxPairs; p++ {
			a := ns[rng.Intn(len(ns))]
			b := ns[rng.Intn(len(ns))]
			if a == b {
				continue
			}
			pairs++
			if isNbr(a, b) {
				links++
			}
		}
		if pairs > 0 {
			cSum += float64(links) / float64(pairs)
			cCnt++
		}
	}
	if cCnt > 0 {
		m.Clustering = cSum / float64(cCnt)
	}
	return m
}
