// Package dynamic implements incremental max-flow over update batches:
// it takes a completed FFMR run's persisted state (vertex records with
// residual capacities and excess paths in the DFS), applies a batch of
// edge updates (insert, delete, capacity increase/decrease), repairs any
// flow the batch invalidated, and resumes FFMR warm from the repaired
// records instead of recomputing from the input graph.
//
// The key observation is that FFMR's own machinery already supports
// this: the per-vertex records are the residual network, and the
// AugmentedEdges delta broadcast is exactly the vehicle an update batch
// needs. Updates split into two classes. Residual-monotone updates —
// inserts and capacity increases — only add residual capacity, so the
// warm run simply continues augmenting. Flow-breaking updates — deletes
// and capacity decreases below committed flow — leave edges carrying
// more flow than they may (f > cap), which the repair phase resolves
// driver-side on the updated residual network: excess flow is first
// rerouted around the violating edge through residual capacity (flow
// value preserved — and if the batch only removed capacity, the rerouted
// flow is still maximum, so the warm run converges immediately), and
// whatever cannot be rerouted is drained by cancelling a source-to-sink
// walk of committed flow through the edge (flow value lowered). The
// resulting deltas are folded into every record by a drain MapReduce
// job; afterwards no record violates its capacity and RunWarm
// re-augments to the new maximum.
//
// The pipeline per batch is: apply job (rewrite capacities, attach
// inserted half-edges, fold the previous run's pending deltas, zero FF5
// sent flags) -> driver-side drain computation -> drain job (apply
// cancellation deltas) -> core.RunWarm. All jobs carry distmr JobSpecs,
// so the whole pipeline runs unchanged on the simulated engine or the
// distributed backend.
//
// Invariants: EdgeIDs are never reused — deletion zeroes capacity but
// keeps the half-edges in place, so IDs stored inside persisted excess
// paths stay resolvable. Inserted edges must connect vertices that
// already have a record (degree >= 1 in the pre-batch graph). Warm-run
// per-round counters are not comparable to a cold run's (see DESIGN.md
// section 8); only the resulting max-flow value is, and the differential
// tests hold it equal to a from-scratch oracle recompute.
package dynamic

import (
	"fmt"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/trace"
)

// Snapshot ties together everything needed to apply an update batch to a
// completed run: the input graph the run computed on, the resolved
// options (fixing variant, reducer count and DFS prefix), the run's
// result, and where its final records and pending deltas live in the
// DFS. Snapshots chain: Apply returns the snapshot of the warm run it
// performed.
type Snapshot struct {
	// Input is the graph this snapshot's flow was computed on. Inserted
	// edges are appended to it by Apply, so EdgeID == index holds at
	// every generation.
	Input *graph.Input
	// Opts are the run's options with defaults resolved. Reducers is
	// load-bearing: every job of the pipeline must reuse it so output
	// files stay partition-aligned for schimmy rounds.
	Opts core.Options
	// Result is the run that produced the state. Its Flows is the flow
	// the records hold, pending deltas included; Apply and BuildView
	// read it instead of the records, and nothing may modify it.
	Result *core.Result
	// StatePrefix locates the final vertex records; PendingDeltas names
	// the AugmentedEdges file the run left unapplied. It is non-empty
	// only under TerminationPaper, the one rule a snapshot runs that can
	// stop in a round that accepted paths: Solve turns the default
	// maximality rule into the quiescent one, and warm runs stop at a
	// fixpoint that accepted nothing.
	StatePrefix   string
	PendingDeltas string
	// Root is the original run's DFS prefix; Gen counts applied batches
	// and namespaces each warm run under Root.
	Root string
	Gen  int
}

// Solve performs the cold base run and returns its snapshot. It forces
// KeepIntermediate (the persisted state is the whole point) and resolves
// option defaults so later batches see the same effective configuration.
func Solve(cluster *mapreduce.Cluster, in *graph.Input, opts core.Options) (*Snapshot, error) {
	opts = opts.WithDefaults(cluster.Nodes * cluster.SlotsPerNode)
	opts.KeepIntermediate = true
	if opts.Termination == core.TerminationMaximal {
		// A run stopped at the maximum leaves the excess-path frontier
		// where the last accepting round left it; the quiescent rule's
		// extra round spreads it, and the first warm restart starts from
		// there. Snapshots keep that rule so warm restarts stay cheap.
		opts.Termination = core.TerminationQuiescent
	}
	res, err := core.Run(cluster, in, opts)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Input:         in,
		Opts:          opts,
		Result:        res,
		StatePrefix:   core.FinalGraphPrefix(opts, res.Rounds),
		PendingDeltas: core.PendingDeltasFile(opts, res.Rounds),
		Root:          opts.PathPrefix,
		Gen:           0,
	}, nil
}

// Outcome reports what one Apply call did.
type Outcome struct {
	// Snapshot is the post-batch state, ready for the next Apply.
	Snapshot *Snapshot
	// Warm is the warm restart's result; Warm.MaxFlow is the maximum flow
	// of the updated graph.
	Warm *core.Result
	// Violations counts edges the batch left carrying more flow than
	// capacity. ReroutedFlow is how much excess the repair shifted onto
	// alternative residual paths (flow value preserved); CancelledFlow is
	// what remained and had to be drained to source/sink (flow value
	// lowered, re-augmented by the warm run). Both are zero when the
	// batch was residual-monotone. DrainRan reports whether the drain job
	// executed.
	Violations    int
	ReroutedFlow  int64
	CancelledFlow int64
	DrainRan      bool
	// RepairSimTime is the modelled cluster cost of the apply and drain
	// jobs, so warm-versus-cold comparisons can charge the full
	// incremental pipeline, not just the warm rounds.
	RepairSimTime time.Duration
}

// Apply folds an update batch into a snapshot: it rewrites the persisted
// records (apply job), cancels any flow the batch invalidated (drain
// computation + drain job) and warm-restarts FFMR to re-augment. The
// snapshot itself is read-only; each call works under a fresh
// Root/warm-NNNN/ DFS prefix, so a failed Apply leaves the snapshot
// usable.
func Apply(cluster *mapreduce.Cluster, snap *Snapshot, batch []graph.Update) (*Outcome, error) {
	if err := validateBatch(snap.Input, batch); err != nil {
		return nil, err
	}
	if len(snap.Result.Flows) != len(snap.Input.Edges) {
		return nil, fmt.Errorf("dynamic: snapshot has %d flows for %d edges", len(snap.Result.Flows), len(snap.Input.Edges))
	}
	updated, err := graph.ApplyUpdates(snap.Input, batch)
	if err != nil {
		return nil, err
	}
	fs := cluster.FS
	tr := snap.Opts.Tracer
	if tr != nil {
		cluster.Tracer = tr
	}
	log := obsv.Or(snap.Opts.Log)

	gen := snap.Gen + 1
	warmPrefix := fmt.Sprintf("%swarm-%04d/", snap.Root, gen)
	fs.DeletePrefix(warmPrefix)

	// The previous run's unapplied deltas ride along as the apply job's
	// side file; the snapshot's flow vector already includes them.
	pendingData, err := fs.ReadFile(snap.PendingDeltas)
	if err != nil {
		return nil, fmt.Errorf("dynamic: pending deltas: %w (was the base run KeepIntermediate?)", err)
	}

	// Committed flow per edge, in canonical orientation: a copy of the
	// snapshot's vector, which later generations and views still read,
	// with zero flow on the inserted edges. The repair leaves it the
	// flow the drained records hold.
	flows := make([]int64, len(updated.Edges))
	copy(flows, snap.Result.Flows)
	drain, err := computeDrain(updated, flows)
	if err != nil {
		return nil, err
	}
	log.Info("update batch repair", "gen", gen, "updates", len(batch),
		"violations", drain.violations, "rerouted_flow", drain.rerouted,
		"cancelled_flow", -drain.flowDelta, "drain_needed", len(drain.deltas) > 0)

	repairSpan := tr.Start(trace.CatRepair, fmt.Sprintf("repair-%04d", gen), nil)
	repairSpan.SetInt(trace.AttrUpdates, int64(len(batch)))
	repairSpan.SetInt(trace.AttrViolations, int64(drain.violations))
	repairSpan.SetInt(trace.AttrReroutedFlow, drain.rerouted)
	repairSpan.SetInt(trace.AttrCancelledFlow, -drain.flowDelta)

	statePrefix, repairSim, err := runApplyJob(cluster, snap, batch, updated, warmPrefix, pendingData, repairSpan)
	if err != nil {
		repairSpan.End()
		return nil, err
	}
	drainRan := false
	if len(drain.deltas) > 0 {
		var drainSim time.Duration
		statePrefix, drainSim, err = runDrainJob(cluster, snap, drain.deltas, warmPrefix, statePrefix, repairSpan)
		if err != nil {
			repairSpan.End()
			return nil, err
		}
		repairSim += drainSim
		drainRan = true
	}
	repairSpan.End()

	warmOpts := snap.Opts
	warmOpts.PathPrefix = warmPrefix
	res, err := core.RunWarm(cluster, updated, warmOpts, core.WarmStart{
		StatePrefix: statePrefix,
		Flows:       flows,
	})
	if err != nil {
		return nil, err
	}

	log.Info("update batch applied", "gen", gen,
		"max_flow", res.MaxFlow, "warm_rounds", res.Rounds)

	return &Outcome{
		Snapshot: &Snapshot{
			Input:         updated,
			Opts:          warmOpts,
			Result:        res,
			StatePrefix:   core.FinalGraphPrefix(warmOpts, res.Rounds),
			PendingDeltas: core.PendingDeltasFile(warmOpts, res.Rounds),
			Root:          snap.Root,
			Gen:           gen,
		},
		Warm:          res,
		Violations:    drain.violations,
		ReroutedFlow:  drain.rerouted,
		CancelledFlow: -drain.flowDelta,
		DrainRan:      drainRan,
		RepairSimTime: repairSim,
	}, nil
}

// validateBatch rejects updates the record model cannot absorb: an
// inserted edge must connect vertices that already own a record, i.e.
// have at least one (possibly zero-capacity) edge in the pre-batch
// graph. Structural checks (ranges, self-loops, negative capacities) are
// graph.ApplyUpdates's job.
func validateBatch(in *graph.Input, batch []graph.Update) error {
	var deg []int
	for i := range batch {
		u := &batch[i]
		if u.Op != graph.UpdateInsert {
			continue
		}
		if deg == nil {
			deg = make([]int, in.NumVertices)
			for j := range in.Edges {
				e := &in.Edges[j]
				if int(e.U) < len(deg) {
					deg[e.U]++
				}
				if int(e.V) < len(deg) {
					deg[e.V]++
				}
			}
		}
		for _, v := range [2]graph.VertexID{u.Edge.U, u.Edge.V} {
			if int(v) < len(deg) && deg[v] == 0 {
				return fmt.Errorf("dynamic: update %d inserts an edge at isolated vertex %d, which has no record", i, v)
			}
		}
	}
	return nil
}
