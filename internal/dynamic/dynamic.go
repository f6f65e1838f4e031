// Package dynamic implements incremental max-flow over update batches:
// it takes a completed FFMR run's persisted state (vertex records with
// residual capacities and excess paths in the DFS), applies a batch of
// edge updates (insert, delete, capacity increase/decrease), repairs any
// flow the batch invalidated, and resumes FFMR warm from the repaired
// flow instead of recomputing from the input graph.
//
// The key observation is that FFMR's own machinery already supports
// this: a run's flow vector and final records are the residual network
// and the search frontier a warm run needs. Updates split into two
// classes. Residual-monotone updates — inserts and capacity increases —
// only add residual capacity, so the warm run simply continues
// augmenting. Flow-breaking updates — deletes and capacity decreases
// below committed flow — leave edges carrying more flow than they may
// (f > cap), which the repair phase resolves driver-side on the
// snapshot's flow vector: excess flow is first rerouted around the
// violating edge through residual capacity (flow value preserved — and
// if the batch only removed capacity, the rerouted flow is still
// maximum), and whatever cannot be rerouted is drained by cancelling a
// source-to-sink walk of committed flow through the edge (flow value
// lowered).
//
// The pipeline per batch is: driver-side repair of the flow vector ->
// core.RunWarm. The warm run's round #0 is written by the driver, as a
// cold run's is, from the updated input, the repaired vector and the
// excess paths of the snapshot's final records; each carried path is
// re-read against the repaired network and dropped once a hop has no
// residual capacity. The warm run certifies the repaired flow after round
// #0 and runs no round when it is already maximum. Every job of the
// pipeline is a max-flow round, so it runs unchanged on the simulated
// engine or the distributed backend.
//
// Invariants: EdgeIDs are never reused — deletion zeroes capacity but
// keeps the half-edges in place, so IDs stored inside persisted excess
// paths stay resolvable. Warm-run per-round counters are not comparable
// to a cold run's (see DESIGN.md section 8); only the resulting max-flow
// value is, and the differential tests hold it equal to a from-scratch
// oracle recompute.
package dynamic

import (
	"fmt"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/trace"
)

// Snapshot ties together everything needed to apply an update batch to a
// completed run: the input graph the run computed on, the resolved
// options (fixing variant, reducer count and DFS prefix), the run's
// result, and where its final records live in the DFS. Snapshots chain:
// Apply returns the snapshot of the warm run it performed.
type Snapshot struct {
	// Input is the graph this snapshot's flow was computed on. Inserted
	// edges are appended to it by Apply, so EdgeID == index holds at
	// every generation.
	Input *graph.Input
	// Opts are the run's options with defaults resolved. Every warm run
	// of the chain reuses them, so its records stay partition-aligned.
	Opts core.Options
	// Result is the run that produced the state. Its Flows is the flow
	// of the run's records with the deltas its last round left pending
	// folded in; Apply and BuildView read it instead of the records, and
	// nothing may modify it.
	Result *core.Result
	// StatePrefix locates the final vertex records, whose excess paths
	// the next warm run's round #0 carries.
	StatePrefix string
	// Root is the original run's DFS prefix; Gen counts applied batches
	// and namespaces each warm run under Root.
	Root string
	Gen  int
}

// Solve performs the cold base run and returns its snapshot. It resolves
// option defaults so later batches see the same effective configuration.
// The run keeps its final records whatever KeepIntermediate says, which
// is all a snapshot needs.
func Solve(cluster *mapreduce.Cluster, in *graph.Input, opts core.Options) (*Snapshot, error) {
	opts = opts.WithDefaults(cluster.Nodes * cluster.SlotsPerNode)
	res, err := core.Run(cluster, in, opts)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Input:       in,
		Opts:        opts,
		Result:      res,
		StatePrefix: core.FinalGraphPrefix(opts, res.Rounds),
		Root:        opts.PathPrefix,
		Gen:         0,
	}, nil
}

// Outcome reports what one Apply call did.
type Outcome struct {
	// Snapshot is the post-batch state, ready for the next Apply.
	Snapshot *Snapshot
	// Warm is the warm restart's result; Warm.MaxFlow is the maximum flow
	// of the updated graph, and Warm.TotalSimTime is the modelled cost of
	// the generation: round #0's DFS write plus the warm rounds.
	Warm *core.Result
	// Violations counts edges the batch left carrying more flow than
	// capacity. ReroutedFlow is how much excess the repair shifted onto
	// alternative residual paths (flow value preserved); CancelledFlow is
	// what remained and had to be drained to source/sink (flow value
	// lowered, re-augmented by the warm run). Both are zero when the
	// batch was residual-monotone.
	Violations    int
	ReroutedFlow  int64
	CancelledFlow int64
}

// Apply folds an update batch into a snapshot: it repairs any flow the
// batch invalidated on the snapshot's flow vector and warm-restarts FFMR
// from the repaired flow to re-augment. The snapshot itself is
// read-only; each call works under a fresh Root/warm-NNNN/ DFS prefix,
// so a failed Apply leaves the snapshot usable.
func Apply(cluster *mapreduce.Cluster, snap *Snapshot, batch []graph.Update) (*Outcome, error) {
	if len(snap.Result.Flows) != len(snap.Input.Edges) {
		return nil, fmt.Errorf("dynamic: snapshot has %d flows for %d edges", len(snap.Result.Flows), len(snap.Input.Edges))
	}
	updated, err := graph.ApplyUpdates(snap.Input, batch)
	if err != nil {
		return nil, err
	}
	tr := snap.Opts.Tracer
	if tr != nil {
		cluster.Tracer = tr
	}
	log := obsv.Or(snap.Opts.Log)
	gen := snap.Gen + 1

	// Committed flow per edge, in canonical orientation: a copy of the
	// snapshot's vector, which later generations and views still read,
	// with zero flow on the inserted edges. The repair leaves it the flow
	// the warm run starts from.
	repairSpan := tr.Start(trace.CatRepair, fmt.Sprintf("repair-%04d", gen), nil)
	flows := make([]int64, len(updated.Edges))
	copy(flows, snap.Result.Flows)
	drain, err := computeDrain(updated, flows)
	if err != nil {
		repairSpan.End()
		return nil, err
	}
	repairSpan.SetInt(trace.AttrUpdates, int64(len(batch)))
	repairSpan.SetInt(trace.AttrViolations, int64(drain.violations))
	repairSpan.SetInt(trace.AttrReroutedFlow, drain.rerouted)
	repairSpan.SetInt(trace.AttrCancelledFlow, -drain.flowDelta)
	repairSpan.End()
	log.Info("update batch repair", "gen", gen, "updates", len(batch),
		"violations", drain.violations, "rerouted_flow", drain.rerouted,
		"cancelled_flow", -drain.flowDelta, "repair_deltas", len(drain.deltas))

	warmOpts := snap.Opts
	warmOpts.PathPrefix = fmt.Sprintf("%swarm-%04d/", snap.Root, gen)
	res, err := core.RunWarm(cluster, updated, warmOpts, core.WarmStart{
		Flows: flows,
		Base:  snap.StatePrefix,
	})
	if err != nil {
		return nil, err
	}

	log.Info("update batch applied", "gen", gen,
		"max_flow", res.MaxFlow, "warm_rounds", res.Rounds)

	return &Outcome{
		Snapshot: &Snapshot{
			Input:       updated,
			Opts:        warmOpts,
			Result:      res,
			StatePrefix: core.FinalGraphPrefix(warmOpts, res.Rounds),
			Root:        snap.Root,
			Gen:         gen,
		},
		Warm:          res,
		Violations:    drain.violations,
		ReroutedFlow:  drain.rerouted,
		CancelledFlow: -drain.flowDelta,
	}, nil
}
