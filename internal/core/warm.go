package core

import (
	"fmt"

	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
)

// This file is the warm-restart entry point of the driver, used by
// internal/dynamic. A warm restart is a cold run that starts from a
// repaired round #0, which the driver writes itself from the updated
// input, the repaired flow vector and the excess paths of a previous
// run's final records. The certificate stops the run, as under
// TerminationMaximal.

// WarmStart configures RunWarm.
type WarmStart struct {
	// Flows is the flow the run starts from, one entry per input edge in
	// canonical U -> V orientation (see Result.Flows). It must be a
	// feasible flow of the input; its value, the source's net outflow, is
	// where the run's MaxFlow starts. The run adds its accepted deltas to
	// the vector in place and returns it as Result.Flows.
	Flows []int64
	// Base is the DFS prefix of a previous run's final vertex records.
	// Round #0 carries their excess paths, each hop re-read from the input
	// and Flows, and drops the paths that have a hop without residual
	// capacity; their adjacency and sent flags are not read.
	Base string
}

// RunWarm resumes FFMR from warm: round #0 writes the input's records
// under opts.PathPrefix holding warm.Flows and the excess paths of the
// records under warm.Base, with zeroed FF5 sent flags and an empty
// AugmentedEdges table, and its stat is a host write as a cold run's is.
// The run certifies the starting flow after round #0 and the flow after
// every round that accepted a path, whatever opts.Termination says, so a
// starting flow that is already maximum runs no round. A round that added
// no excess path and accepted nothing while a residual augmenting path
// remains is an internal error: no later round could make progress.
//
// Options.Engine is ignored: a warm restart always re-augments with FFMR,
// which is valid from any engine's persisted state because every engine
// writes the same residual records (see WriteEngineState).
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
	if warm.Base == "" {
		return nil, fmt.Errorf("core: warm restart has no base records")
	}
	// The certificate stops every warm restart.
	opts.Termination = TerminationMaximal
	return run(cluster, in, opts, &warm)
}
