package prflow

import (
	"fmt"
	"math"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/trace"
)

// The loop. A round is one push+update pair, and every
// globalRelabelInterval rounds a global relabel follows:
//
//	push:     every active vertex (excess > 0, not s or t) pushes along
//	          admissible arcs (residual > 0, h(u) == h(v)+1). Heights are
//	          frozen and received flow waits in pending.
//	update:   pending flow lands, then every vertex holding excess with
//	          no admissible arc relabels to 1 + min over its residual
//	          neighbours' start-of-barrier heights, written after the
//	          scan. With no flow in flight, an empty work list means the
//	          preflow is a flow and, by height validity, a maximum one.
//	global relabel: a BFS from t over reverse residual arcs (through s,
//	          like any vertex) lifts every height to max(h, d_t), and
//	          unreached vertices to max(h, n).
//
// The order of the work list cannot change the result: u->v and v->u
// are never both admissible in one push, so a push changes no residual
// another push reads, and relabels read frozen heights.
//
// The invariant carried across all of this is height validity:
// h(u) <= h(v) + 1 for every residual arc (u,v), with h(s) = n pinned
// and h(t) = 0. Pushes preserve it because they are exact (the new
// reverse arc (v,u) gets h(v) = h(u)-1); simultaneous relabels
// preserve it because every relabel uses exact start-of-barrier
// neighbour heights and heights only ever increase; the BFS lift
// preserves it because the pointwise max of two valid labelings is
// valid. Validity plus h(s) = n is what makes zero excess a proof of
// maximality: any residual s-t path would need n to fall to 0 in at
// most n-1 unit steps.

// network is the residual network and the push-relabel state over it.
// The arcs leaving u are arcs[start[u]:start[u+1]], sorted by (To, ID):
// both halves of every input edge, each holding its flow and capacity
// in its own direction, and arcs[pair[a]] is a's reverse half.
type network struct {
	n            int64
	source, sink graph.VertexID
	start        []int
	arcs         []graph.Edge
	pair         []int32

	height, excess, pending []int64
	// active lists the vertices holding excess or pending flow, in no
	// particular order, and listed marks them. relabels, dist and queue
	// are update and BFS scratch.
	active   []graph.VertexID
	listed   []bool
	relabels []relabel
	dist     []int32
	queue    []graph.VertexID

	pushes, relabelCount int64

	tr      *trace.Tracer
	runSpan *trace.Span
}

type relabel struct {
	u graph.VertexID
	h int64
}

// newNetwork builds the initial preflow: heights are the hop distance to
// the sink, direction ignored — undirected hop distances satisfy
// |d(u)-d(v)| <= 1 across every edge, hence every residual arc, so they
// are valid whichever arcs are residual, and a vertex that cannot reach
// t starts at n. The source's arcs are saturated, placing the excess at
// its neighbours. Every buffer the loop needs is allocated here.
func newNetwork(in *graph.Input) *network {
	n := in.NumVertices
	start, arcs := graph.HalfEdges(in, nil)
	nw := &network{
		n: int64(n), source: in.Source, sink: in.Sink,
		start: start, arcs: arcs, pair: make([]int32, len(arcs)),
		height: make([]int64, n), excess: make([]int64, n), pending: make([]int64, n),
		active: make([]graph.VertexID, 0, n), listed: make([]bool, n),
		relabels: make([]relabel, 0, n), queue: make([]graph.VertexID, 0, n),
	}
	halves := make([][2]int32, len(in.Edges)) // forward, backward
	for a := range arcs {
		if arcs[a].Fwd {
			halves[arcs[a].ID][0] = int32(a)
		} else {
			halves[arcs[a].ID][1] = int32(a)
		}
	}
	for _, h := range halves {
		nw.pair[h[0]], nw.pair[h[1]] = h[1], h[0]
	}

	nw.dist = graph.HopDistances(graph.Adjacency(in), in.Sink)
	for u, d := range nw.dist {
		if d < 0 || graph.VertexID(u) == in.Source {
			nw.height[u] = nw.n
		} else {
			nw.height[u] = int64(d)
		}
	}
	for a := start[in.Source]; a < start[in.Source+1]; a++ {
		nw.move(a, arcs[a].Cap)
		nw.excess[arcs[a].To] += arcs[a].Cap
	}
	for u := range nw.excess {
		if v := graph.VertexID(u); v != in.Source && v != in.Sink && nw.excess[u] > 0 {
			nw.active = append(nw.active, v)
			nw.listed[u] = true
		}
	}
	return nw
}

// move sends amt along arc a, keeping its pair skew-symmetric.
func (nw *network) move(a int, amt int64) {
	nw.arcs[a].Flow += amt
	nw.arcs[nw.pair[a]].Flow -= amt
}

// run alternates push and update until no vertex holds excess, calling
// onPair after every pair, and returns the number of pairs.
func (nw *network) run(maxPairs int, onPair func(core.RoundStat)) (int, error) {
	for round := 1; round <= maxPairs; round++ {
		t0 := time.Now()
		var sp *trace.Span
		if nw.tr != nil {
			sp = nw.tr.Start(trace.CatRound, fmt.Sprintf("round-%05d", round), nw.runSpan)
		}
		st := core.RoundStat{Round: round}
		st.Submitted, st.FlowDelta = nw.push()
		st.ActiveVertices = nw.update()
		st.WallTime = time.Since(t0)
		sp.SetInt(trace.AttrRound, int64(round))
		sp.SetInt(trace.AttrSubmitted, st.Submitted)
		sp.SetInt(trace.AttrFlowDelta, st.FlowDelta)
		sp.SetInt(trace.AttrActiveVertices, st.ActiveVertices)
		sp.End()
		onPair(st)
		if len(nw.active) == 0 {
			return round, nil
		}
		if round%globalRelabelInterval == 0 {
			nw.globalRelabel()
		}
	}
	return maxPairs, fmt.Errorf("prflow: no convergence within %d rounds", maxPairs)
}

// push runs the push phase and returns the pushes made and the flow the
// sink absorbed.
func (nw *network) push() (pushes, sinkIn int64) {
	for _, u := range nw.active {
		h := nw.height[u]
		for a := nw.start[u]; a < nw.start[u+1] && nw.excess[u] > 0; a++ {
			e := &nw.arcs[a]
			r := e.Residual()
			if r <= 0 || h != nw.height[e.To]+1 {
				continue
			}
			amt := min(nw.excess[u], r)
			nw.move(a, amt)
			nw.excess[u] -= amt
			pushes++
			switch v := e.To; v {
			case nw.source:
				// Excess returning to the source leaves the system.
			case nw.sink:
				sinkIn += amt
			default:
				// Joins the work list past the end this range fixed.
				if !nw.listed[v] {
					nw.listed[v] = true
					nw.active = append(nw.active, v)
				}
				nw.pending[v] += amt
			}
		}
	}
	nw.pushes += pushes
	return pushes, sinkIn
}

// update lands pending flow, drops the vertices left without excess from
// the work list, relabels the rest that have no admissible arc, and
// returns how many vertices hold excess.
func (nw *network) update() int64 {
	kept := nw.active[:0]
	for _, u := range nw.active {
		nw.excess[u] += nw.pending[u]
		nw.pending[u] = 0
		if nw.excess[u] == 0 {
			nw.listed[u] = false
			continue
		}
		kept = append(kept, u)
		h, minH := nw.height[u], int64(math.MaxInt64)
		for a := nw.start[u]; a < nw.start[u+1]; a++ {
			if nw.arcs[a].Residual() <= 0 {
				continue
			}
			hv := nw.height[nw.arcs[a].To]
			if h == hv+1 {
				minH = math.MaxInt64 // admissible: no relabel
				break
			}
			minH = min(minH, hv)
		}
		if minH < math.MaxInt64 {
			nw.relabels = append(nw.relabels, relabel{u, minH + 1})
		}
	}
	nw.active = kept
	for _, r := range nw.relabels {
		nw.height[r.u] = r.h
	}
	nw.relabelCount += int64(len(nw.relabels))
	nw.relabels = nw.relabels[:0]
	return int64(len(nw.active))
}

// globalRelabel lifts every height to its distance to the sink in the
// residual network, n if the sink is out of reach. s and t keep theirs:
// d(t) = 0, and d(s) < n = h(s).
func (nw *network) globalRelabel() {
	for i := range nw.dist {
		nw.dist[i] = -1
	}
	nw.dist[nw.sink] = 0
	queue := append(nw.queue[:0], nw.sink)
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		for a := nw.start[w]; a < nw.start[w+1]; a++ {
			v := nw.arcs[a].To
			if nw.dist[v] < 0 && nw.arcs[nw.pair[a]].Residual() > 0 {
				nw.dist[v] = nw.dist[w] + 1
				queue = append(queue, v)
			}
		}
	}
	nw.queue = queue
	for u, d := range nw.dist {
		lift := nw.n
		if d >= 0 {
			lift = int64(d)
		}
		nw.height[u] = max(nw.height[u], lift)
	}
}

// flows returns the canonical per-edge flow assignment.
func (nw *network) flows() []int64 {
	flows := make([]int64, len(nw.arcs)/2)
	for a := range nw.arcs {
		if e := &nw.arcs[a]; e.Fwd {
			flows[e.ID] = e.Flow
		}
	}
	return flows
}
