package core

import (
	"fmt"

	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
)

// This file is the warm-restart entry point of the driver, used by
// internal/dynamic. A warm restart is a cold run that starts from a
// repaired round #0: the dynamic-update apply job has already written
// round #0's records under the run's prefix, holding flow, residual
// capacities and excess paths from a previous run, and the repair's flow
// deltas become round 1's AugmentedEdges table. The certificate stops the
// run, as under TerminationMaximal.

// WarmStart configures RunWarm.
type WarmStart struct {
	// Flows is the flow the run starts from, one entry per input edge in
	// canonical U -> V orientation (see Result.Flows): the flow the round
	// #0 records hold once Deltas are applied to them. The run's MaxFlow
	// starts from its value, the source's net outflow, and the run adds
	// its accepted deltas to the vector in place and returns it as
	// Result.Flows.
	Flows []int64
	// Deltas is the repair's AugmentedEdges table. RunWarm writes it as
	// round 1's table, so round 1 folds it into every record (MAP lines
	// 1-4) before it searches; nil is an empty table.
	Deltas map[graph.EdgeID]int64
}

// RunWarm resumes FFMR from the records under FinalGraphPrefix(opts, 0),
// which play the role of the records Run writes in round #0; the result
// has no round-0 stat. The run certifies the starting flow before round 1
// and the flow after every round that accepted a path, whatever
// opts.Termination says, so a starting flow that is already maximum runs
// no round and leaves warm.Deltas pending (see PendingDeltasFile). A round
// that added no excess path and accepted nothing while a residual
// augmenting path remains is an internal error: no later round could make
// progress. The input graph gives the source/sink designation and the
// meaning of warm.Flows, and is not re-written to the DFS.
//
// Unlike Run, the caller must pass the same explicit Reducers count the
// records were produced with (a zero value is resolved from the cluster,
// which is only correct when they came from the same cluster shape),
// because schimmy rounds merge-join against them. Options.Engine is
// ignored: a warm restart always re-augments with FFMR, which is valid
// from any engine's persisted state because every engine writes the same
// partition-aligned residual records (see WriteEngineState).
func RunWarm(cluster *mapreduce.Cluster, in *graph.Input, opts Options, warm WarmStart) (*Result, error) {
	opts.applyDefaults(cluster.Nodes * cluster.SlotsPerNode)
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(warm.Flows) != len(in.Edges) {
		return nil, fmt.Errorf("core: warm restart has %d flows for %d edges", len(warm.Flows), len(in.Edges))
	}
	if base := roundPrefix(opts.PathPrefix, 0); len(cluster.FS.List(base)) == 0 {
		return nil, fmt.Errorf("core: warm restart: %q holds no records", base)
	}
	// The certificate stops every warm restart.
	opts.Termination = TerminationMaximal
	return run(cluster, in, opts, &warm)
}

// PendingDeltasFile names the AugmentedEdges file a completed run left
// unapplied: the deltas of round `rounds` were written for round
// rounds+1, which never executed. Under the default TerminationMaximal
// the last round is the one whose accepted flow made the flow maximum,
// so the file holds that round's deltas; TerminationPaper can likewise
// stop in a round that accepted paths, and a warm restart that ran no
// round leaves its repair deltas there. Any consumer of the persisted
// records (dynamic updates, validation tooling) must fold the file in.
// Under TerminationQuiescent it encodes an empty table.
func PendingDeltasFile(opts Options, rounds int) string {
	prefix := opts.PathPrefix
	if prefix == "" {
		prefix = "ffmr/"
	}
	return deltaName(prefix, rounds+1)
}

// PruneSaturated drops the excess paths of one vertex record that have no
// residual capacity left, returning how many were dropped. It is the
// MAP-function pruning pass of Fig. 3 line 4 exposed for out-of-band use:
// the dynamic-update apply job calls it on the paths an update batch's
// capacities saturated.
func PruneSaturated(v *graph.VertexValue) int {
	return updateVertex(v, &deltaSet{}, nil)
}
