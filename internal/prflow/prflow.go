// Package prflow is a synchronous parallel push-relabel max-flow engine
// in the style of Baumstark, Blelloch and Shun ("Efficient
// Implementation of a Synchronous Parallel Push-Relabel Algorithm"). It
// is the portfolio's alternative to the paper's FFMR algorithm for
// inputs FFMR handles poorly — high-diameter graphs, where FFMR's round
// count is bounded below by the source-sink distance, while
// push-relabel moves flow along many short admissible steps
// concurrently.
//
// The engine runs in memory over flat arrays — a CSR of residual arcs,
// per-vertex heights and excess, and a work list of the vertices
// holding excess — in rounds of one push phase (heights frozen) and one
// update phase (flow lands, relabels happen), with a periodic global
// relabel run as one BFS from the sink. loop.go has the loop and its
// height-validity argument.
//
// The engine registers itself with the core driver under the name
// "prflow" (core.Options.Engine), seeds initial heights with a host BFS
// from the sink (graph.HopDistances; no MapReduce job runs), and
// persists the same final residual state as the FFMR driver via
// core.WriteEngineState, so validation, dynamic snapshots and the
// service query API are engine-agnostic.
package prflow

import (
	"fmt"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/trace"
)

// EngineName is the core.Options.Engine value this package registers.
const EngineName = "prflow"

// globalRelabelInterval is the number of push+update pairs between
// global relabels.
const globalRelabelInterval = 50

func init() {
	core.RegisterEngine(EngineName, Run)
}

// Run executes the push-relabel engine as a core.EngineFunc: same
// cluster, same input, same resolved Options, same Result shape and
// persisted final state as the FFMR driver. No MapReduce job runs: the
// initial heights come from a host BFS and the loop runs in process
// (deterministic for a given input, so results are identical on the
// local and distributed backends). A round is one push+update pair with
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
	defer runSpan.End()

	nw := newNetwork(in)
	nw.tr, nw.runSpan = tr, runSpan
	reg := tr.Registry()
	var stats []core.RoundStat
	var sinkFlow int64
	rounds, err := nw.run(10000+100*in.NumVertices, func(st core.RoundStat) {
		stats = append(stats, st)
		sinkFlow += st.FlowDelta
		reg.Gauge(trace.GaugeFFRound).Set(int64(st.Round))
		reg.Gauge(trace.GaugeFFMaxFlow).Set(sinkFlow)
		reg.Gauge(trace.GaugeFFActive).Set(st.ActiveVertices)
		reg.Counter(trace.CounterFFRounds).Add(1)
	})
	if err != nil {
		return nil, err
	}

	flows := nw.flows()
	var value int64
	for a := nw.start[in.Source]; a < nw.start[in.Source+1]; a++ {
		value += nw.arcs[a].Flow
	}

	// Proof-carrying checks: the assignment is a feasible s-t flow of
	// the claimed value, the residual graph admits no augmenting path,
	// and the cut that leaves has the flow's value, so it is maximum.
	if err := core.CheckAssignment(in, flows, value); err != nil {
		return nil, fmt.Errorf("prflow: %w", err)
	}
	_, cut, maximal := core.ResidualReachable(in, flows)
	if !maximal {
		return nil, fmt.Errorf("prflow: internal error: residual augmenting path remains at value %d", value)
	}
	if cut != value {
		return nil, fmt.Errorf("prflow: internal error: no residual augmenting path remains, but the minimum cut has capacity %d, not the flow value %d",
			cut, value)
	}

	if err := core.WriteEngineState(fs, in, opts, rounds, flows); err != nil {
		return nil, err
	}

	log.Info("prflow done", "max_flow", value, "rounds", rounds,
		"pushes", nw.pushes, "relabels", nw.relabelCount, "wall", time.Since(start))
	runSpan.SetInt("max_flow", value)
	runSpan.SetInt("rounds", int64(rounds))
	runSpan.SetInt("pushes", nw.pushes)
	runSpan.SetInt("relabels", nw.relabelCount)
	return &core.Result{
		Variant:       opts.Variant,
		MaxFlow:       value,
		Rounds:        rounds,
		Converged:     true,
		Flows:         flows,
		RoundStats:    stats,
		TotalWallTime: time.Since(start),
		RunSpan:       runSpan,
	}, nil
}
