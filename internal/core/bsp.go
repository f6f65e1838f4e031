package core

import (
	"fmt"
	"sync"
	"time"

	"ffmr/internal/graph"
	"ffmr/internal/pregel"
	"ffmr/internal/trace"
)

// This file is the BSP/Pregel translation of the FFMR algorithm, testing
// the paper's closing conjecture that "the ideas presented in this paper
// also translate to Pregel" (Section II-B). The mapping:
//
//	MR round                    -> BSP superstep
//	vertex record <Su, Tu, Eu>  -> vertex value (same codec)
//	vertex fragments (shuffle)  -> messages
//	aug_proc (FF2)              -> MasterCompute over collected candidates
//	AugmentedEdges side file    -> global side data
//	source/sink move counters   -> aggregators
//	schimmy (FF3)               -> unnecessary: vertex state persists
//	                               across supersteps by construction
//	FF5 sent flags              -> unchanged, suppress redundant messages
//
// The structural win Pregel promised is visible directly in the stats:
// the BSP version never moves master records, so its message volume sits
// far below the FF1/FF2 shuffle volume that the schimmy pattern (FF3)
// was invented to work around. It is not strictly below FF5's: message
// delivery lags the send by one superstep, so a BSP run takes a few more
// supersteps than the equivalent MR run takes rounds, and the extra
// steps carry extension traffic.

// bspGlobal is the global side data published by the master each
// superstep: a stop flag plus the round's accepted flow deltas.
func encodeBSPGlobal(stop bool, deltas map[graph.EdgeID]int64) []byte {
	out := make([]byte, 1, 1+8*len(deltas))
	if stop {
		out[0] = 1
	}
	return append(out, EncodeDeltas(deltas)...)
}

func decodeBSPGlobal(data []byte) (stop bool, deltas map[graph.EdgeID]int64, err error) {
	if len(data) == 0 {
		return false, nil, nil
	}
	deltas, err = DecodeDeltas(data[1:])
	return data[0] != 0, deltas, err
}

// bspMaster is the MasterCompute hook: it is the aug_proc of the BSP
// world, accepting candidate augmenting paths sequentially and deciding
// termination from the movement aggregators.
type bspMaster struct {
	mu            sync.Mutex
	maxFlow       int64
	accepted      int64
	quietStreak   int
	bidirectional bool
	perStep       []BSPStepStat
}

// BSPStepStat mirrors RoundStat for the BSP run.
type BSPStepStat struct {
	Superstep  int
	Candidates int64
	Accepted   int64
	FlowDelta  int64
	SourceMove int64
	SinkMove   int64
}

func (m *bspMaster) compute(superstep int, collected [][]byte, aggregates map[string]int64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	var acc Accumulator
	var accepted, delta int64
	for _, item := range collected {
		p, err := graph.DecodePath(item)
		if err != nil {
			return nil, fmt.Errorf("core: bsp master: %w", err)
		}
		if d := acc.Accept(&p, graph.CapInf); d > 0 {
			accepted++
			delta += d
		}
	}
	m.maxFlow += delta
	m.accepted += accepted

	som := aggregates["source move"]
	sim := aggregates["sink move"]
	m.perStep = append(m.perStep, BSPStepStat{
		Superstep: superstep, Candidates: int64(len(collected)),
		Accepted: accepted, FlowDelta: delta, SourceMove: som, SinkMove: sim,
	})

	// Termination: the movement-counter rule (quiescent form), with a
	// two-superstep quiet streak because BSP message delivery lags one
	// superstep behind the send (a freshly sent extension can still
	// create movement after a quiet superstep).
	quiescent := som == 0 || sim == 0
	if !m.bidirectional {
		quiescent = som == 0
	}
	if superstep > 0 && quiescent && accepted == 0 {
		m.quietStreak++
	} else {
		m.quietStreak = 0
	}
	stop := m.quietStreak >= 2
	return encodeBSPGlobal(stop, acc.Deltas()), nil
}

// bspProgram is the per-vertex compute function.
type bspProgram struct {
	source, sink  graph.VertexID
	k             int
	sentTracking  bool
	bidirectional bool
}

// Compute implements pregel.Program. It fuses the MAP and REDUCE of the
// MR formulation: apply global deltas, merge incoming path fragments,
// report movement, submit candidates, extend paths.
func (p *bspProgram) Compute(ctx *pregel.Context, v *pregel.Vertex, messages [][]byte) error {
	stop, table, err := decodeBSPGlobal(ctx.Global())
	if err != nil {
		return err
	}
	deltas := &deltaSet{m: table}
	var sigs []uint64
	if stop {
		ctx.VoteToHalt()
		return nil
	}
	val, err := graph.DecodeValue(v.Value)
	if err != nil {
		return err
	}
	updateVertex(val, deltas, &sigs)

	// Merge incoming fragments exactly as the REDUCE function does.
	sm, tm := len(val.Su), len(val.Tu)
	isSink := v.ID == p.sink
	k := p.k
	if p.sentTracking && len(val.Eu) > 0 {
		k = len(val.Eu)
	}
	var as, at Accumulator
	seenS := make(map[uint64]bool, k)
	seenT := make(map[uint64]bool, k)
	for i := range val.Su {
		seenS[val.Su[i].Signature()] = true
	}
	for i := range val.Tu {
		seenT[val.Tu[i].Signature()] = true
	}

	var frag graph.VertexValue
	for _, mb := range messages {
		frag.Reset()
		if err := graph.DecodeValueInto(mb, &frag); err != nil {
			return err
		}
		// Messages were sent before the last barrier published its flow
		// deltas, so in-flight fragments are one delta set behind the
		// vertex state (unlike MR, where fragments and reducers live in
		// the same round). Bring them current and drop any that the
		// barrier's acceptances saturated — otherwise the sink would
		// accept stale candidates and overshoot the true maximum flow.
		updateVertex(&frag, deltas, &sigs)
		for i := range frag.Su {
			se := &frag.Su[i]
			if isSink {
				// Arriving source paths at the sink are candidate
				// augmenting paths, submitted to the master collector.
				ctx.Collect(graph.EncodePath(se))
				continue
			}
			sig := se.Signature()
			if seenS[sig] || len(val.Su) >= k {
				continue
			}
			if se.Len() == 0 || as.Accept(se, 1) > 0 {
				seenS[sig] = true
				val.Su = append(val.Su, se.Clone())
			}
		}
		for i := range frag.Tu {
			te := &frag.Tu[i]
			sig := te.Signature()
			if seenT[sig] || len(val.Tu) >= k {
				continue
			}
			if te.Len() == 0 || at.Accept(te, 1) > 0 {
				seenT[sig] = true
				val.Tu = append(val.Tu, te.Clone())
			}
		}
	}

	if sm == 0 && len(val.Su) > 0 {
		ctx.Aggregate("source move", 1)
	}
	if tm == 0 && len(val.Tu) > 0 {
		ctx.Aggregate("sink move", 1)
	}

	// Candidate generation from the post-merge state (FF2 semantics).
	if !isSink {
		var local Accumulator
		cands := generateCandidates(val, nil, &local)
		for i := range cands {
			ctx.Collect(graph.EncodePath(&cands[i]))
		}
	}

	// Extension with FF5 sent-flag suppression.
	extcfg := extendConfig{source: p.source, sink: p.sink, sentTracking: p.sentTracking}
	extendVertex(v.ID, val, &extcfg, new(fragment), func(f *fragment) {
		ctx.SendTo(f.To, graph.EncodeValue(&f.Value))
	})

	v.Value = graph.EncodeValue(val)
	return nil
}

// BSPResult reports a BSP max-flow run.
type BSPResult struct {
	MaxFlow    int64
	Supersteps int
	// Messages and MessageBytes are the BSP analogue of the MR version's
	// intermediate records and shuffle bytes.
	Messages     int64
	MessageBytes int64
	Steps        []BSPStepStat
	WallTime     time.Duration
}

// BSPOptions configures RunBSP.
type BSPOptions struct {
	// K is the per-vertex excess-path limit when SentTracking is off
	// (default 4).
	K int
	// DisableSentTracking turns off FF5-style suppression of redundant
	// messages (on by default, as the BSP translation is of FF5).
	DisableSentTracking bool
	// DisableBidirectional turns off sink-side excess paths.
	DisableBidirectional bool
	// Workers is the number of concurrent partitions (default 8).
	Workers int
	// MaxSupersteps bounds the run (default 10000).
	MaxSupersteps int
	// Tracer, if non-nil, records a run span with one child span per
	// superstep (annotated with active-vertex and message-volume counts).
	Tracer *trace.Tracer
}

// RunBSP computes the maximum flow with the Pregel/BSP translation of
// the FFMR algorithm.
func RunBSP(in *graph.Input, opts BSPOptions) (*BSPResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	master := &bspMaster{bidirectional: !opts.DisableBidirectional}
	runSpan := opts.Tracer.Start(trace.CatRun, "ffmr-bsp", nil)
	runSpan.SetStr("variant", "BSP")
	defer func() {
		runSpan.SetInt("max_flow", master.maxFlow)
		runSpan.End()
	}()
	engine, program, err := newBSPEngine(in, opts, master, runSpan)
	if err != nil {
		return nil, err
	}
	stats, err := engine.Run(program)
	if err != nil {
		return nil, err
	}
	return &BSPResult{
		MaxFlow:      master.maxFlow,
		Supersteps:   stats.Supersteps,
		Messages:     stats.Messages,
		MessageBytes: stats.MessageBytes,
		Steps:        master.perStep,
		WallTime:     stats.WallTime,
	}, nil
}

// newBSPEngine builds the vertex values directly (the BSP analogue of
// round #0) and returns the engine over them, sequenced by master, with
// the vertex program to run on it.
func newBSPEngine(in *graph.Input, opts BSPOptions, master *bspMaster, runSpan *trace.Span) (*pregel.Engine, *bspProgram, error) {
	if opts.K <= 0 {
		opts.K = 4
	}
	adj := make(map[graph.VertexID][]graph.Edge)
	for i, e := range in.Edges {
		revCap := e.Cap
		if e.Directed {
			revCap = 0
		}
		id := graph.EdgeID(i)
		adj[e.U] = append(adj[e.U], graph.Edge{To: e.V, ID: id, Cap: e.Cap, RevCap: revCap, Fwd: true})
		adj[e.V] = append(adj[e.V], graph.Edge{To: e.U, ID: id, Cap: revCap, RevCap: e.Cap, Fwd: false})
	}
	vertices := make([]*pregel.Vertex, 0, len(adj))
	for u, edges := range adj {
		val := &graph.VertexValue{Eu: edges}
		if u == in.Source {
			val.Su = []graph.ExcessPath{{}}
		}
		if u == in.Sink && !opts.DisableBidirectional {
			val.Tu = []graph.ExcessPath{{}}
		}
		if !opts.DisableSentTracking {
			val.SentS = make([]uint64, len(edges))
			val.SentT = make([]uint64, len(edges))
		}
		vertices = append(vertices, &pregel.Vertex{ID: u, Value: graph.EncodeValue(val)})
	}
	engine, err := pregel.NewEngine(pregel.Config{
		Workers:       opts.Workers,
		MaxSupersteps: opts.MaxSupersteps,
		Master:        master.compute,
		Tracer:        opts.Tracer,
		TraceParent:   runSpan,
	}, vertices)
	if err != nil {
		return nil, nil, err
	}
	return engine, &bspProgram{
		source:        in.Source,
		sink:          in.Sink,
		k:             opts.K,
		sentTracking:  !opts.DisableSentTracking,
		bidirectional: !opts.DisableBidirectional,
	}, nil
}
