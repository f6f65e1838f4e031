// Package prflow is a synchronous parallel push-relabel max-flow engine
// in the style of Baumstark, Blelloch and Shun ("Efficient
// Implementation of a Synchronous Parallel Push-Relabel Algorithm"),
// run over the repository's Pregel/BSP substrate instead of shared
// memory. It is the portfolio's alternative to the paper's FFMR
// algorithm for inputs FFMR handles poorly — high-diameter graphs,
// where FFMR's round count is bounded below by the source-sink
// distance, while push-relabel moves flow along many short admissible
// steps concurrently.
//
// Supersteps strictly alternate between push barriers (flow moves,
// heights frozen) and update barriers (flow lands, relabels happen,
// new heights are announced); a periodic global-relabeling BFS from
// the sink runs as message waves inside the same engine. See
// program.go for the protocol and its height-validity argument.
//
// The engine registers itself with the core driver under the name
// "prflow" (core.Options.Engine), seeds initial heights with a
// host-side BFS from the sink over the in-memory input
// (graph.HopDistances; no MapReduce job runs), and persists the same
// final residual state as the FFMR driver via core.WriteEngineState, so
// validation, dynamic snapshots and the service query API are
// engine-agnostic.
package prflow

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/pregel"
	"ffmr/internal/trace"
)

// EngineName is the core.Options.Engine value this package registers.
const EngineName = "prflow"

// globalRelabelInterval is the number of push supersteps between
// global-relabeling BFS waves.
const globalRelabelInterval = 50

func init() {
	core.RegisterEngine(EngineName, Run)
}

// master sequences the phases between supersteps and records one
// RoundStat per superstep.
type master struct {
	mu sync.Mutex

	next      byte // phase of the superstep about to run
	pushSteps int  // push supersteps since the last global relabel

	stats    []core.RoundStat
	sinkFlow int64 // cumulative flow absorbed by the sink
	pushes   int64
	relabels int64

	callback func(core.RoundStat)
	reg      *trace.Registry
	engine   *pregel.Engine // set once built; the master only wakes it
}

func (m *master) compute(superstep int, _ [][]byte, aggregates map[string]int64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	cur := m.next
	stat := core.RoundStat{Round: superstep}
	var next byte
	switch cur {
	case phasePush:
		m.pushSteps++
		m.pushes += aggregates[aggPushes]
		stat.Submitted = aggregates[aggPushes]
		next = phaseUpdate
	case phaseUpdate:
		m.relabels += aggregates[aggRelabels]
		m.sinkFlow += aggregates[aggSinkIn]
		stat.FlowDelta = aggregates[aggSinkIn]
		stat.ActiveVertices = aggregates[aggActive]
		switch {
		case aggregates[aggExcess] == 0:
			// No excess anywhere outside s and t at a barrier with no
			// flow in flight: the preflow is a maximum flow.
			next = phaseDone
		case m.pushSteps >= globalRelabelInterval:
			m.pushSteps = 0
			next = phaseBFSInit
		default:
			next = phasePush
		}
	case phaseBFSInit:
		next = phaseBFSWave
	case phaseBFSWave:
		if aggregates[aggLabeled] == 0 {
			// The apply step is the one superstep every vertex takes
			// part in, halted or not.
			next = phaseBFSApply
			m.engine.WakeAll()
		} else {
			next = phaseBFSWave
		}
	case phaseBFSApply:
		next = phasePush
	case phaseDone:
		next = phaseDone
	default:
		return nil, fmt.Errorf("prflow: master in unknown phase %d", cur)
	}
	m.next = next
	m.stats = append(m.stats, stat)

	m.reg.Gauge(trace.GaugeFFRound).Set(int64(superstep))
	m.reg.Gauge(trace.GaugeFFMaxFlow).Set(m.sinkFlow)
	m.reg.Gauge(trace.GaugeFFActive).Set(stat.ActiveVertices)
	m.reg.Counter(trace.CounterFFRounds).Add(1)
	if m.callback != nil {
		m.callback(stat)
	}
	return []byte{next}, nil
}

// Run executes the push-relabel engine as a core.EngineFunc: same
// cluster, same input, same resolved Options, same Result shape and
// persisted final state as the FFMR driver. No MapReduce job runs: the
// initial heights come from a host BFS and the main loop runs on the
// in-process Pregel engine (deterministic for a given input, so results
// are identical on the local and distributed backends). Supersteps have
// no modelled cluster cost, so Result.TotalSimTime is 0.
func Run(cluster *mapreduce.Cluster, in *graph.Input, opts core.Options) (*core.Result, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("prflow: %w", err)
	}
	fs := cluster.FS
	tr := opts.Tracer
	log := obsv.Or(opts.Log).With("run", EngineName)
	start := time.Now()

	fs.DeletePrefix(opts.PathPrefix)

	runSpan := tr.Start(trace.CatRun, EngineName, nil)
	runSpan.SetStr("variant", EngineName)

	n := int64(in.NumVertices)

	// Initial heights: hop distance to the sink, direction ignored.
	// Undirected hop distances satisfy |d(u)-d(v)| <= 1 across every
	// edge, hence every residual arc, so d_t is a valid labeling no
	// matter which arcs are currently residual. Unreached vertices can
	// never route flow to t and start at height n.
	dist := graph.HopDistances(graph.Adjacency(in), in.Sink)
	height := func(u graph.VertexID) int64 {
		switch u {
		case in.Source:
			return n
		case in.Sink:
			return 0
		}
		if d := dist[u]; d >= 0 {
			return int64(d)
		}
		return n
	}

	vertices := buildVertices(in, height)

	maxSupersteps := 20000 + 200*in.NumVertices
	m := &master{
		next:     phasePush,
		callback: opts.RoundCallback,
		reg:      tr.Registry(),
	}
	engine, err := pregel.NewEngine(pregel.Config{
		MaxSupersteps: maxSupersteps,
		Master:        m.compute,
		Tracer:        tr,
		TraceParent:   runSpan,
	}, vertices)
	if err != nil {
		runSpan.End()
		return nil, err
	}
	m.engine = engine
	program := &program{n: n, source: in.Source, sink: in.Sink}
	stats, err := engine.Run(program)
	if err != nil {
		runSpan.End()
		return nil, err
	}
	if m.next != phaseDone {
		runSpan.End()
		return nil, fmt.Errorf("prflow: no convergence within %d supersteps", maxSupersteps)
	}

	flows, err := extractFlows(in, vertices)
	if err != nil {
		runSpan.End()
		return nil, err
	}
	var value int64
	for i := range in.Edges {
		if in.Edges[i].U == in.Source {
			value += flows[i]
		}
		if in.Edges[i].V == in.Source {
			value -= flows[i]
		}
	}

	// Proof-carrying checks: the assignment is a feasible s-t flow of
	// the claimed value, and the residual graph admits no augmenting
	// path, so the value is maximum.
	if err := core.CheckAssignment(in, flows, value); err != nil {
		runSpan.End()
		return nil, fmt.Errorf("prflow: %w", err)
	}
	if residualReachable(in, flows) {
		runSpan.End()
		return nil, fmt.Errorf("prflow: internal error: residual augmenting path remains at value %d", value)
	}

	if err := core.WriteEngineState(fs, in, opts, stats.Supersteps, flows); err != nil {
		runSpan.End()
		return nil, err
	}

	res := &core.Result{
		Variant:       opts.Variant,
		MaxFlow:       value,
		Rounds:        stats.Supersteps,
		Converged:     true,
		RoundStats:    m.stats,
		TotalWallTime: time.Since(start),
		RunSpan:       runSpan,
	}
	for i := range m.stats {
		res.RoundStats[i].WallTime = stats.WallTime / time.Duration(len(m.stats))
	}
	log.Info("prflow done",
		"max_flow", value,
		"supersteps", stats.Supersteps,
		"pushes", m.pushes,
		"relabels", m.relabels,
		"messages", stats.Messages,
		"wall", time.Since(start))
	runSpan.SetInt("max_flow", value)
	runSpan.SetInt("supersteps", int64(stats.Supersteps))
	runSpan.SetInt("pushes", m.pushes)
	runSpan.SetInt("relabels", m.relabels)
	runSpan.SetInt("messages", stats.Messages)
	runSpan.SetInt("message_bytes", stats.MessageBytes)
	runSpan.End()
	return res, nil
}

// buildVertices encodes the initial preflow with every vertex at its
// given height. The source's out-edges are saturated up front (the
// classical preflow initialization), placing the excess directly at the
// neighbours.
func buildVertices(in *graph.Input, height func(graph.VertexID) int64) []*pregel.Vertex {
	adj := make(map[graph.VertexID][]graph.Edge)
	excess := make(map[graph.VertexID]int64)
	for i := range in.Edges {
		e := &in.Edges[i]
		revCap := e.Cap
		if e.Directed {
			revCap = 0
		}
		var f int64
		switch in.Source {
		case e.U:
			f = e.Cap
			excess[e.V] += e.Cap
		case e.V:
			f = -revCap
			excess[e.U] += revCap
		}
		id := graph.EdgeID(i)
		adj[e.U] = append(adj[e.U], graph.Edge{To: e.V, ID: id, Flow: f, Cap: e.Cap, RevCap: revCap, Fwd: true})
		adj[e.V] = append(adj[e.V], graph.Edge{To: e.U, ID: id, Flow: -f, Cap: revCap, RevCap: e.Cap, Fwd: false})
	}
	// s and t are vertices even when no edge touches them: they never
	// halt before phaseDone, which is what keeps the engine stepping
	// through supersteps in which every other vertex is idle.
	for _, u := range []graph.VertexID{in.Source, in.Sink} {
		if _, ok := adj[u]; !ok {
			adj[u] = nil
		}
	}
	vertices := make([]*pregel.Vertex, 0, len(adj))
	for u, edges := range adj {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].To != edges[j].To {
				return edges[i].To < edges[j].To
			}
			return edges[i].ID < edges[j].ID
		})
		st := &state{
			height: height(u),
			dist:   -1,
			edges:  edges,
			nbrH:   make([]int64, len(edges)),
		}
		if u != in.Source && u != in.Sink {
			st.excess = excess[u]
		}
		for i := range edges {
			st.nbrH[i] = height(edges[i].To)
		}
		vertices = append(vertices, &pregel.Vertex{ID: u, Value: encodeState(nil, st)})
	}
	return vertices
}

// extractFlows reads the canonical per-edge flows out of the halted
// vertex states, verifying skew symmetry between the two halves.
func extractFlows(in *graph.Input, vertices []*pregel.Vertex) ([]int64, error) {
	flows := make([]int64, len(in.Edges))
	halves := make([]int, len(in.Edges))
	var st state
	for _, v := range vertices {
		if err := decodeState(v.Value, &st); err != nil {
			return nil, err
		}
		for i := range st.edges {
			e := &st.edges[i]
			canonical := e.Flow
			if !e.Fwd {
				canonical = -canonical
			}
			if halves[e.ID] > 0 && flows[e.ID] != canonical {
				return nil, fmt.Errorf("prflow: edge %d violates skew symmetry: %d vs %d",
					e.ID, flows[e.ID], canonical)
			}
			flows[e.ID] = canonical
			halves[e.ID]++
		}
	}
	for id, cnt := range halves {
		if cnt != 2 {
			return nil, fmt.Errorf("prflow: edge %d has %d halves", id, cnt)
		}
	}
	return flows, nil
}

// residualReachable reports whether the sink is reachable from the
// source in the residual graph induced by flows — true means the
// assignment is not maximum.
func residualReachable(in *graph.Input, flows []int64) bool {
	adj := make(map[graph.VertexID][]graph.VertexID)
	for i := range in.Edges {
		e := &in.Edges[i]
		rev := e.Cap
		if e.Directed {
			rev = 0
		}
		if e.Cap-flows[i] > 0 {
			adj[e.U] = append(adj[e.U], e.V)
		}
		if rev+flows[i] > 0 {
			adj[e.V] = append(adj[e.V], e.U)
		}
	}
	seen := map[graph.VertexID]bool{in.Source: true}
	queue := []graph.VertexID{in.Source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == in.Sink {
			return true
		}
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return false
}
