package experiments

import (
	"fmt"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/maxflow"
	"ffmr/internal/portfolio"
	"ffmr/internal/prep"
	"ffmr/internal/stats"
)

// This file adds the solver-portfolio experiment. The paper's FFMR
// algorithms are tuned for small-world graphs — low diameter, heavy
// hubs; this experiment measures what the portfolio buys outside that
// regime: the scale-free core reduction (internal/prep) on a
// power-law graph with a thick peelable fringe, and the synchronous
// push-relabel engine (internal/prflow) on a high-diameter lattice
// where FFMR's BFS-bounded round count degrades.

// PortfolioRow is one (instance, solver configuration) measurement.
type PortfolioRow struct {
	Graph  string
	Config string // "ffmr", "reduce+ffmr", "prflow" or "auto"
	// Instance shape as solved: the reduce row reports the core's sizes.
	Vertices int
	Edges    int
	MaxFlow  int64
	// Rounds counts MR rounds for FFMR-family rows and push+update pairs
	// for prflow rows (each pair is two in-memory barriers, the analogue
	// of an MR round's synchronization).
	Rounds       int
	SimTime      time.Duration
	WallTime     time.Duration
	ShuffleBytes int64
	Note         string
}

func shuffleTotal(res *core.Result) int64 {
	var total int64
	for _, rs := range res.RoundStats {
		total += rs.ShuffleBytes
	}
	return total
}

// Portfolio runs the two headline portfolio instances, solving each
// with plain FFMR, the specialized configuration (core-reduced FFMR on
// the power-law graph, prflow on the grid) and the auto engine, and
// demands value parity across every configuration — a mismatch is an
// error, making the experiment a differential test. The rows quantify
// the claim that `-engine auto` beats plain FFMR off the small-world
// regime.
func Portfolio(sc Scale) ([]PortfolioRow, *stats.Table, error) {
	var rows []PortfolioRow

	addRow := func(name, config string, in *graph.Input, res *core.Result, note string) {
		rows = append(rows, PortfolioRow{
			Graph: name, Config: config,
			Vertices: in.NumVertices, Edges: len(in.Edges),
			MaxFlow: res.MaxFlow, Rounds: res.Rounds,
			SimTime: res.TotalSimTime, WallTime: res.TotalWallTime,
			ShuffleBytes: shuffleTotal(res), Note: note,
		})
	}
	solve := func(in *graph.Input, engine string) (*core.Result, error) {
		// Pinned acceptance order, as in Fig7: the rows compare
		// configurations, and first-come-first-served can hand any one of
		// them an extra round.
		return runQuiescent(sc.newCluster(sc.Nodes), in, core.Options{
			Variant: core.FF5, Engine: engine, Tracer: sc.Tracer, DeterministicAccept: true,
		})
	}
	autoNote := func(in *graph.Input) string {
		p, err := portfolio.ProbeInstance(sc.newCluster(sc.Nodes), in, 0, "probe/", false)
		if err != nil {
			return ""
		}
		return portfolio.Choose(p).Reason
	}

	// Instance 1: a power-law graph with a heavy degree-<=2 fringe
	// (Barabási-Albert at attachment 2). The core reduction peels the
	// fringe into gadget edges before FFMR ever touches the DFS.
	base, err := graphgen.BarabasiAlbert(sc.Chain[0].Vertices, 2, sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	pl, err := graphgen.AttachSuperSourceSink(base, sc.W, sc.MinDegree, sc.Seed+100)
	if err != nil {
		return nil, nil, err
	}
	graphgen.RandomCapacities(pl, 20, sc.Seed+200)

	plain, err := solve(pl, "ffmr")
	if err != nil {
		return nil, nil, err
	}
	addRow("power-law", "ffmr", pl, plain, "")

	red, err := prep.Reduce(pl)
	if err != nil {
		return nil, nil, err
	}
	coreRes, err := solve(red.Core, "ffmr")
	if err != nil {
		return nil, nil, err
	}
	if coreRes.MaxFlow != plain.MaxFlow {
		return nil, nil, fmt.Errorf("experiments: core-reduced flow %d != plain FFMR flow %d",
			coreRes.MaxFlow, plain.MaxFlow)
	}
	// The reduction must also reconstruct a feasible full-graph flow.
	coreFlows, err := dinicFlowsOnCore(red)
	if err != nil {
		return nil, nil, err
	}
	full, err := red.Uncontract(coreFlows)
	if err != nil {
		return nil, nil, err
	}
	if err := core.CheckAssignment(pl, full, plain.MaxFlow); err != nil {
		return nil, nil, fmt.Errorf("experiments: uncontracted flow invalid: %w", err)
	}
	addRow("power-law", "reduce+ffmr", red.Core, coreRes,
		fmt.Sprintf("%.0f%% edges peeled", 100*red.Stats.EdgesRemovedFrac()))

	autoRes, err := solve(pl, portfolio.EngineName)
	if err != nil {
		return nil, nil, err
	}
	if autoRes.MaxFlow != plain.MaxFlow {
		return nil, nil, fmt.Errorf("experiments: auto flow %d != plain FFMR flow %d",
			autoRes.MaxFlow, plain.MaxFlow)
	}
	addRow("power-law", "auto", pl, autoRes, autoNote(pl))

	// Instance 2: a square lattice, corner to corner — the diameter is
	// Theta(side), so FFMR pays a BFS-depth-bound number of rounds while
	// prflow's push waves work on every frontier at once.
	side := isqrt(sc.Chain[0].Vertices) / 2
	if side < 8 {
		side = 8
	}
	grid, err := graphgen.Grid(side, side)
	if err != nil {
		return nil, nil, err
	}
	graphgen.RandomCapacities(grid, 16, sc.Seed+300)

	gridFF, err := solve(grid, "ffmr")
	if err != nil {
		return nil, nil, err
	}
	addRow("grid", "ffmr", grid, gridFF, "")

	gridPR, err := solve(grid, "prflow")
	if err != nil {
		return nil, nil, err
	}
	if gridPR.MaxFlow != gridFF.MaxFlow {
		return nil, nil, fmt.Errorf("experiments: prflow flow %d != FFMR flow %d on grid",
			gridPR.MaxFlow, gridFF.MaxFlow)
	}
	addRow("grid", "prflow", grid, gridPR, "rounds are push+update pairs")

	gridAuto, err := solve(grid, portfolio.EngineName)
	if err != nil {
		return nil, nil, err
	}
	if gridAuto.MaxFlow != gridFF.MaxFlow {
		return nil, nil, fmt.Errorf("experiments: auto flow %d != FFMR flow %d on grid",
			gridAuto.MaxFlow, gridFF.MaxFlow)
	}
	addRow("grid", "auto", grid, gridAuto, autoNote(grid))

	t := stats.NewTable("Solver portfolio off the small-world regime (FF5 baseline)",
		"Graph", "Config", "V", "E", "|f*|", "Rounds", "SimTime", "WallTime", "Shuffle", "Note")
	for _, r := range rows {
		t.AddRow(r.Graph, r.Config, stats.FormatCount(int64(r.Vertices)),
			stats.FormatCount(int64(r.Edges)), stats.FormatCount(r.MaxFlow), r.Rounds,
			stats.FormatDuration(r.SimTime), stats.FormatDuration(r.WallTime),
			stats.FormatBytes(r.ShuffleBytes), r.Note)
	}
	return rows, t, nil
}

// dinicFlowsOnCore extracts per-edge flows of the reduced core with the
// sequential solver; the experiment only needs them to exercise
// Uncontract against the full graph.
func dinicFlowsOnCore(red *prep.Reduction) ([]int64, error) {
	net, err := maxflow.FromInput(red.Core)
	if err != nil {
		return nil, err
	}
	maxflow.Dinic(net, int(red.Core.Source), int(red.Core.Sink))
	flows := make([]int64, len(red.Core.Edges))
	for i := range flows {
		flows[i] = net.Flow(2 * i)
	}
	return flows, nil
}

func isqrt(n int) int {
	s := 0
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
