package core

import (
	"fmt"

	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/trace"
)

// This file is the warm-restart entry point of the driver, used by
// internal/dynamic: instead of writing the input graph's vertex records
// in round #0, the run starts from partition-aligned vertex records that
// already hold flow, residual capacities and excess paths — the output of
// a previous run after the dynamic-update apply/drain jobs rewrote it.

// WarmStart configures RunWarm.
type WarmStart struct {
	// StatePrefix is the DFS prefix holding the starting vertex records.
	// The files must be partition-aligned with Options.Reducers (they are
	// when produced by a job with the same reducer count on the same
	// cluster), because schimmy rounds merge-join against them.
	StatePrefix string
	// Flows is the flow the records hold, one entry per input edge in
	// canonical U -> V orientation (see Result.Flows). The run's MaxFlow
	// starts from its value, the source's net outflow, and the run adds
	// its accepted deltas to the vector in place and returns it as
	// Result.Flows.
	Flows []int64
}

// RunWarm resumes FFMR from pre-existing warm state rather than from the
// input graph. The records under warm.StatePrefix play the role of the
// records Run writes in round #0, and the result has no round-0 stat; the
// first max-flow round reads them with an empty
// AugmentedEdges table and augmentation continues until the warm
// fixpoint rule fires (see ffLoop.run). The input graph gives the
// source/sink designation and the meaning of warm.Flows, and is not
// re-written to the DFS.
//
// Unlike Run, the caller must pass the same explicit Reducers count the
// state was produced with (a zero value is resolved from the cluster,
// which is only correct when the state came from the same cluster
// shape). Options.Engine is ignored: a warm restart always re-augments
// with FFMR, which is valid from any engine's persisted state because
// every engine writes the same partition-aligned residual records (see
// WriteEngineState).
func RunWarm(cluster *mapreduce.Cluster, in *graph.Input, opts Options, warm WarmStart) (*Result, error) {
	opts.applyDefaults(cluster.Nodes * cluster.SlotsPerNode)
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if warm.StatePrefix == "" {
		return nil, fmt.Errorf("core: warm restart needs a state prefix")
	}
	if len(warm.Flows) != len(in.Edges) {
		return nil, fmt.Errorf("core: warm restart has %d flows for %d edges", len(warm.Flows), len(in.Edges))
	}
	fs := cluster.FS
	if len(fs.List(warm.StatePrefix)) == 0 {
		return nil, fmt.Errorf("core: warm state prefix %q holds no records", warm.StatePrefix)
	}
	feat := opts.Variant.features()
	prefix := opts.PathPrefix

	tr := opts.Tracer
	if tr != nil {
		cluster.Tracer = tr
	}
	runSpan := tr.Start(trace.CatRun, fmt.Sprintf("ffmr-%s-warm", opts.Variant), nil)
	runSpan.SetStr("variant", opts.Variant.String())
	runSpan.SetInt(trace.AttrWarm, 1)
	result := &Result{Variant: opts.Variant, Flows: warm.Flows, RunSpan: runSpan}
	for i := range in.Edges {
		switch in.Source {
		case in.Edges[i].U:
			result.MaxFlow += warm.Flows[i]
		case in.Edges[i].V:
			result.MaxFlow -= warm.Flows[i]
		}
	}
	defer func() {
		runSpan.SetInt("max_flow", result.MaxFlow)
		runSpan.SetInt("rounds", int64(result.Rounds))
		runSpan.End()
	}()

	// Warm round 1 sees an empty AugmentedEdges table: any cancellation
	// deltas from the repair phase were already folded into the state
	// records by the drain job.
	if err := fs.WriteFile(deltaName(prefix, 1), EncodeDeltas(nil)); err != nil {
		return nil, err
	}

	loop := &ffLoop{
		cluster: cluster, in: in, opts: opts, feat: feat,
		prefix: prefix, tr: tr, runSpan: runSpan, result: result,
		warmBase: warm.StatePrefix, warm: true,
	}
	if err := loop.run(); err != nil {
		return nil, err
	}

	for i := range result.RoundStats {
		result.TotalSimTime += result.RoundStats[i].SimTime
		result.TotalWallTime += result.RoundStats[i].WallTime
	}
	if !result.Converged {
		return result, fmt.Errorf("core: warm %s did not converge within %d rounds", opts.Variant, opts.MaxRounds)
	}
	return result, nil
}

// PendingDeltasFile names the AugmentedEdges file a completed run left
// unapplied: the deltas of round `rounds` were written for round
// rounds+1, which never executed. Under the default TerminationMaximal
// the last round is the one whose accepted flow made the flow maximum,
// so the file holds that round's deltas; TerminationPaper can likewise
// stop in a round that accepted paths. Any consumer of the persisted
// records (dynamic updates, validation tooling) must fold the file in.
// Under TerminationQuiescent and after a warm restart it encodes an
// empty table.
func PendingDeltasFile(opts Options, rounds int) string {
	prefix := opts.PathPrefix
	if prefix == "" {
		prefix = "ffmr/"
	}
	return deltaName(prefix, rounds+1)
}

// ApplyAugmentedEdges applies an AugmentedEdges table to one vertex
// record — adjacency halves plus every hop copy inside stored excess
// paths — then prunes paths left without residual capacity, returning
// how many were dropped. It is the MAP-function state transition of
// Fig. 3 lines 1-4 exposed for out-of-band delta application: the
// dynamic-update drain job uses it to fold flow-cancellation deltas into
// persisted records between runs.
func ApplyAugmentedEdges(v *graph.VertexValue, deltas map[graph.EdgeID]int64) int {
	return updateVertex(v, &deltaSet{m: deltas}, nil)
}
