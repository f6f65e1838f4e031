package experiments

import (
	"fmt"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/dynamic"
	"ffmr/internal/graphgen"
	"ffmr/internal/maxflow"
	"ffmr/internal/stats"
)

// This file adds the dynamic-graph experiment: warm-restart incremental
// max-flow (internal/dynamic) versus a cold from-scratch recompute over
// the same update batches. The paper computes static flows only; this
// experiment quantifies when resuming from persisted state beats
// rerunning, and where the crossover lies as batches grow.

// WarmColdRow is one generation of the warm-versus-cold comparison: the
// same updated graph solved both ways.
type WarmColdRow struct {
	Graph     string
	BatchSize int
	Gen       int
	MaxFlow   int64
	// Violations and CancelledFlow describe the repair the batch forced.
	Violations    int
	CancelledFlow int64
	// Warm numbers come from dynamic.Apply; WarmSim charges the full
	// incremental pipeline, the warm run's round #0 DFS write and its
	// rounds, as ColdSim charges the cold run's. Cold numbers come from
	// runQuiescent on the same updated graph.
	WarmRounds int
	ColdRounds int
	WarmSim    time.Duration
	ColdSim    time.Duration
}

// WarmVsCold applies gens randomized update batches of each given size
// to a chain graph and solves every updated graph twice: warm (resumed
// from the previous generation's persisted records) and cold (from
// scratch). The two flows must agree with each other and with sequential
// Dinic — a mismatch is an error, making every run of this experiment a
// differential test — and the returned
// rows carry the rounds/simulated-time comparison that EXPERIMENTS.md
// tabulates.
func WarmVsCold(sc Scale, batchSizes []int, gens int) ([]WarmColdRow, *stats.Table, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	name := sc.Chain[0].Name
	in, err := sc.withSuperST(chain[0], sc.W)
	if err != nil {
		return nil, nil, err
	}

	profile := graphgen.DefaultUpdateProfile()
	var rows []WarmColdRow
	for _, size := range batchSizes {
		cluster := sc.newCluster(sc.Nodes)
		snap, err := dynamic.Solve(cluster, in, core.Options{
			Variant: core.FF5, Tracer: sc.Tracer,
			PathPrefix: fmt.Sprintf("warmcold-%d/", size),
		})
		if err != nil {
			return nil, nil, err
		}
		for gen := 1; gen <= gens; gen++ {
			batch, err := graphgen.GenerateUpdates(snap.Input, size, profile, sc.Seed+int64(1000*size+gen))
			if err != nil {
				return nil, nil, err
			}
			out, err := dynamic.Apply(cluster, snap, batch)
			if err != nil {
				return nil, nil, err
			}
			coldRes, err := runQuiescent(sc.newCluster(sc.Nodes), out.Snapshot.Input,
				core.Options{Variant: core.FF5})
			if err != nil {
				return nil, nil, err
			}
			if coldRes.MaxFlow != out.Warm.MaxFlow {
				return nil, nil, fmt.Errorf(
					"experiments: warm/cold flows diverge on %s batch %d gen %d: warm %d, cold %d",
					name, size, gen, out.Warm.MaxFlow, coldRes.MaxFlow)
			}
			upd := out.Snapshot.Input
			net, err := maxflow.FromInput(upd)
			if err != nil {
				return nil, nil, err
			}
			if want := maxflow.Dinic(net, int(upd.Source), int(upd.Sink)); want != out.Warm.MaxFlow {
				return nil, nil, fmt.Errorf(
					"experiments: warm flow %d on %s batch %d gen %d, Dinic says %d",
					out.Warm.MaxFlow, name, size, gen, want)
			}
			rows = append(rows, WarmColdRow{
				Graph: name, BatchSize: size, Gen: gen, MaxFlow: out.Warm.MaxFlow,
				Violations: out.Violations, CancelledFlow: out.CancelledFlow,
				WarmRounds: out.Warm.Rounds, ColdRounds: coldRes.Rounds,
				WarmSim: out.Warm.TotalSimTime, ColdSim: coldRes.TotalSimTime,
			})
			snap = out.Snapshot
		}
	}

	t := stats.NewTable("Warm restart vs cold recompute (FF5, "+name+")",
		"Batch", "Gen", "|f*|", "Violations", "Cancelled", "Warm Rounds", "Cold Rounds",
		"Warm SimTime", "Cold SimTime")
	for _, r := range rows {
		t.AddRow(r.BatchSize, r.Gen, stats.FormatCount(r.MaxFlow), r.Violations,
			stats.FormatCount(r.CancelledFlow), r.WarmRounds, r.ColdRounds,
			stats.FormatDuration(r.WarmSim), stats.FormatDuration(r.ColdSim))
	}
	return rows, t, nil
}
