// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated cluster: the FB1..FB6 graph
// table, Fig. 5 (runtime and rounds versus max-flow value), Fig. 6
// (optimization effectiveness FF1..FF5 versus BFS), Table I (per-round
// statistics of FF5), Fig. 7 (shuffle bytes per round across variants)
// and Fig. 8 (runtime scalability with graph size and cluster size),
// plus ablations for the Section III design choices.
//
// Each experiment returns both raw rows (for programmatic assertions in
// tests and benchmarks) and a rendered table/figure for human comparison
// against the paper.
package experiments

import (
	"fmt"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/stats"
	"ffmr/internal/trace"
)

// Scale bundles the knobs that size an experiment run. The paper's
// graphs are three orders of magnitude larger than what fits in one
// process; Tiny and Default provide proportionally scaled-down chains.
type Scale struct {
	// Chain is the nested FB-graph chain specification.
	Chain []graphgen.FBSpec
	// Attach is the Barabási-Albert attachment count of the master graph
	// (half the expected average degree).
	Attach int
	// Seed drives all randomized generation.
	Seed int64
	// W is the default number of super source/sink taps (the paper's w).
	W int
	// MinDegree is the eligibility threshold for tap vertices (the paper
	// uses "at least 3000 edges" of a 5000 cap; scaled down here).
	MinDegree int
	// Nodes and SlotsPerNode size the simulated cluster.
	Nodes        int
	SlotsPerNode int
	// Realistic applies the Hadoop-like cost model so simulated runtimes
	// include per-round overhead and bandwidth charges, as the paper's
	// wall-clock numbers do.
	Realistic bool
	// MemoryBudget, when positive, runs every cluster on the out-of-core
	// shuffle path: map outputs above this many framed bytes spill sorted
	// runs to SpillDir and reducers k-way merge them back. Zero keeps the
	// unbounded in-memory shuffle.
	MemoryBudget int64
	// SpillDir is where spill segments live (default: system temp dir).
	SpillDir string
	// Tracer, if non-nil, is threaded through the experiment's FFMR runs
	// so their run/round/job/task spans accumulate in one trace (exported
	// with the CLI's -trace flag).
	Tracer *trace.Tracer
	// Distributed, if non-nil, runs every job on this distributed
	// master/worker backend instead of the simulated engine (the cost
	// model still prices simulated time from the measured task profile).
	Distributed mapreduce.Backend
}

// Tiny returns a fast configuration for tests and benchmarks: the
// paper's chain scaled down 10,000x.
func Tiny() Scale {
	return Scale{
		Chain:        graphgen.TinyFBChain(),
		Attach:       4,
		Seed:         1,
		W:            8,
		MinDegree:    8,
		Nodes:        4,
		SlotsPerNode: 4,
		Realistic:    true,
	}
}

// Default returns the paper's chain scaled down 1,000x (FB6' has 411K
// vertices and ~2M edges); a full experiment sweep takes minutes.
func Default() Scale {
	return Scale{
		Chain:        graphgen.DefaultFBChain(),
		Attach:       5,
		Seed:         1,
		W:            16,
		MinDegree:    10,
		Nodes:        20,
		SlotsPerNode: 8,
		Realistic:    true,
	}
}

// newCluster builds a fresh simulated cluster for one run.
func (sc *Scale) newCluster(nodes int) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: nodes, BlockSize: 1 << 20, Replication: 2})
	c := mapreduce.NewCluster(nodes, sc.SlotsPerNode, fs)
	if sc.Realistic {
		cm := mapreduce.DefaultCostModel()
		// Scale the fixed overhead with the scale of the graphs: the
		// paper observes ~10-15 minutes minimum per round at 1000x our
		// default size; charge a proportional constant.
		cm.RoundOverhead = 2 * time.Second
		cm.TaskOverhead = 20 * time.Millisecond
		c.Cost = cm
	} else {
		c.Cost = mapreduce.ZeroCostModel()
	}
	c.MemoryBudget = sc.MemoryBudget
	c.SpillDir = sc.SpillDir
	c.Distributed = sc.Distributed
	return c
}

// runQuiescent is core.Run under the quiescent stopping rule, which every
// experiment pins. The paper's driver stops only after a round in which
// a search goes quiescent, and its figures measure that round too: it
// is where the sink frontier floods the graph, so it sets the Max Size
// column and Table I's last row. The default rule stops a round earlier,
// at the maximum.
func runQuiescent(cluster *mapreduce.Cluster, in *graph.Input, opts core.Options) (*core.Result, error) {
	opts.Termination = core.TerminationQuiescent
	return core.Run(cluster, in, opts)
}

// BuildChain generates the nested graph chain.
func (sc *Scale) BuildChain() ([]*graph.Input, error) {
	return graphgen.CrawlChain(sc.Chain, sc.Attach, sc.Seed)
}

// withSuperST attaches w super source/sink taps to a chain member.
func (sc *Scale) withSuperST(in *graph.Input, w int) (*graph.Input, error) {
	return graphgen.AttachSuperSourceSink(in, w, sc.MinDegree, sc.Seed+100)
}

// GraphRow is one row of the paper's Section V graph table.
type GraphRow struct {
	Name     string
	Vertices int
	Edges    int
	// SizeBytes is the round-0 vertex records' DFS footprint ("Size"),
	// MaxSizeBytes the largest per-round footprint ("Max Size").
	SizeBytes    int64
	MaxSizeBytes int64
	MaxFlow      int64
	Rounds       int
	// Diameter is the sampled BFS eccentricity estimate, the analogue of
	// the paper's "we estimate the value of D is between 7 to 14 for FB6
	// using a MR-based BFS".
	Diameter int
}

// GraphsTable reproduces the graph table of Section V: for each chain
// member it reports vertex/edge counts and the stored size before and at
// the peak of an FF5 max-flow run.
func GraphsTable(sc Scale) ([]GraphRow, *stats.Table, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	rows := make([]GraphRow, 0, len(chain))
	for i, base := range chain {
		in, err := sc.withSuperST(base, sc.W)
		if err != nil {
			return nil, nil, err
		}
		cluster := sc.newCluster(sc.Nodes)
		res, err := runQuiescent(cluster, in, core.Options{Variant: core.FF5})
		if err != nil {
			return nil, nil, err
		}
		m := graphgen.Measure(base, 4, sc.Seed)
		rows = append(rows, GraphRow{
			Name:         sc.Chain[i].Name,
			Vertices:     base.NumVertices,
			Edges:        len(base.Edges),
			SizeBytes:    res.InputGraphBytes,
			MaxSizeBytes: res.MaxGraphBytes,
			MaxFlow:      res.MaxFlow,
			Rounds:       res.Rounds,
			Diameter:     m.EstimatedDiameter,
		})
	}
	t := stats.NewTable("Graph table (paper Section V)",
		"Graph", "Vertices", "Edges", "Size", "Max Size", "|f*|", "Rounds", "D")
	for _, r := range rows {
		t.AddRow(r.Name, stats.FormatCount(int64(r.Vertices)), stats.FormatCount(int64(r.Edges)),
			stats.FormatBytes(r.SizeBytes), stats.FormatBytes(r.MaxSizeBytes),
			stats.FormatCount(r.MaxFlow), r.Rounds, r.Diameter)
	}
	return rows, t, nil
}

// Fig5Point is one x position of Fig. 5.
type Fig5Point struct {
	W       int
	MaxFlow int64
	Rounds  int
	SimTime time.Duration
}

// Fig5 reproduces Fig. 5: runtime and number of rounds versus max-flow
// value on the largest chain graph, varying the number of super
// source/sink taps w. The paper's headline: rounds stay nearly constant
// as |f*| grows by 128x.
func Fig5(sc Scale, ws []int) ([]Fig5Point, *stats.Figure, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	largest := chain[len(chain)-1]
	var points []Fig5Point
	fig := stats.NewFigure("Fig 5: runtime and rounds vs max-flow value (FF5, largest graph)",
		"maxflow", "runtime seconds / rounds")
	timeSeries := fig.AddSeries("runtime_s")
	roundSeries := fig.AddSeries("rounds")
	for _, w := range ws {
		in, err := sc.withSuperST(largest, w)
		if err != nil {
			return nil, nil, err
		}
		cluster := sc.newCluster(sc.Nodes)
		res, err := runQuiescent(cluster, in, core.Options{Variant: core.FF5})
		if err != nil {
			return nil, nil, err
		}
		points = append(points, Fig5Point{
			W: w, MaxFlow: res.MaxFlow, Rounds: res.Rounds, SimTime: res.TotalSimTime,
		})
		timeSeries.Add(float64(res.MaxFlow), res.TotalSimTime.Seconds())
		roundSeries.Add(float64(res.MaxFlow), float64(res.Rounds))
	}
	return points, fig, nil
}

// Fig6Row is one bar of Fig. 6.
type Fig6Row struct {
	Graph    string
	Algo     string
	Rounds   int
	SimTime  time.Duration
	WallTime time.Duration
	MaxFlow  int64
}

// Fig6 reproduces Fig. 6: the cumulative effectiveness of the FF1..FF5
// optimizations on a small and a large graph, with MR-BFS as the lower
// bound. The paper reports FF5 ~5.4x faster than FF1 on FB1 and ~14.2x
// on FB4.
func Fig6(sc Scale) ([]Fig6Row, *stats.Table, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	graphs := []struct {
		name string
		in   *graph.Input
	}{
		{sc.Chain[0].Name, chain[0]},
	}
	if len(chain) >= 4 {
		graphs = append(graphs, struct {
			name string
			in   *graph.Input
		}{sc.Chain[3].Name, chain[3]})
	}

	var rows []Fig6Row
	for _, g := range graphs {
		in, err := sc.withSuperST(g.in, sc.W)
		if err != nil {
			return nil, nil, err
		}
		for _, variant := range []core.Variant{core.FF1, core.FF2, core.FF3, core.FF4, core.FF5} {
			cluster := sc.newCluster(sc.Nodes)
			res, err := runQuiescent(cluster, in, core.Options{Variant: variant})
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, Fig6Row{
				Graph: g.name, Algo: variant.String(), Rounds: res.Rounds,
				SimTime: res.TotalSimTime, WallTime: res.TotalWallTime, MaxFlow: res.MaxFlow,
			})
		}
		cluster := sc.newCluster(sc.Nodes)
		bfs, err := core.RunBFS(cluster, in, 0, "")
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Fig6Row{
			Graph: g.name, Algo: "BFS", Rounds: bfs.Rounds,
			SimTime: bfs.TotalSimTime, WallTime: bfs.TotalWallTime,
		})
	}

	t := stats.NewTable("Fig 6: MR optimization effectiveness (FF1..FF5 vs BFS)",
		"Graph", "Algo", "Rounds", "SimTime", "WallTime", "|f*|", "Speedup vs FF1")
	base := map[string]time.Duration{}
	for _, r := range rows {
		if r.Algo == "FF1" {
			base[r.Graph] = r.SimTime
		}
	}
	for _, r := range rows {
		speedup := ""
		if b, ok := base[r.Graph]; ok && r.Algo != "BFS" {
			speedup = stats.Speedup(b, r.SimTime)
		}
		t.AddRow(r.Graph, r.Algo, r.Rounds, stats.FormatDuration(r.SimTime),
			stats.FormatDuration(r.WallTime), stats.FormatCount(r.MaxFlow), speedup)
	}
	return rows, t, nil
}

// Table1 reproduces Table I: per-round Hadoop, aug_proc and runtime
// statistics of FF5 on the largest graph, one row per Result.RoundStats
// entry. The driver writes the same values onto the round spans of
// sc.Tracer when it is set, so a -trace export agrees with the table.
func Table1(sc Scale, w int) (*core.Result, *stats.Table, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	in, err := sc.withSuperST(chain[len(chain)-1], w)
	if err != nil {
		return nil, nil, err
	}
	cluster := sc.newCluster(sc.Nodes)
	res, err := runQuiescent(cluster, in, core.Options{Variant: core.FF5, Tracer: sc.Tracer})
	if err != nil {
		return nil, nil, err
	}
	t := stats.RoundTable(
		fmt.Sprintf("Table I: FF5 per-round statistics (largest graph, w=%d, |f*|=%d)", w, res.MaxFlow),
		res.RoundStats)
	return res, t, nil
}

// Fig7Variant holds one variant's per-round shuffle bytes.
type Fig7Variant struct {
	Algo   string
	Rounds []int64 // shuffle bytes per round, index = round
}

// Fig7 reproduces Fig. 7: total shuffle bytes per round for FF1, FF2,
// FF3 and FF5 (FF4 does not change shuffle volume, as the paper notes).
func Fig7(sc Scale) ([]Fig7Variant, *stats.Figure, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	in, err := sc.withSuperST(chain[0], sc.W)
	if err != nil {
		return nil, nil, err
	}
	fig := stats.NewFigure("Fig 7: shuffle bytes per round", "round", "shuffle bytes")
	var out []Fig7Variant
	for _, variant := range []core.Variant{core.FF1, core.FF2, core.FF3, core.FF5} {
		cluster := sc.newCluster(sc.Nodes)
		res, err := runQuiescent(cluster, in, core.Options{Variant: variant, Tracer: sc.Tracer})
		if err != nil {
			return nil, nil, err
		}
		v := Fig7Variant{Algo: variant.String()}
		s := fig.AddSeries(variant.String())
		for _, rs := range res.RoundStats {
			v.Rounds = append(v.Rounds, rs.ShuffleBytes)
			s.Add(float64(rs.Round), float64(rs.ShuffleBytes))
		}
		out = append(out, v)
	}
	return out, fig, nil
}

// Fig8Point is one measurement of Fig. 8.
type Fig8Point struct {
	Graph   string
	Edges   int
	Nodes   int
	Algo    string
	Rounds  int
	MaxFlow int64
	SimTime time.Duration
	// ShuffleBytes is the run's total shuffle volume, an exact scale
	// signal (SimTime is modelled from measured task CPU).
	ShuffleBytes int64
}

// Fig8 reproduces Fig. 8: FF5 runtime versus graph size for several
// cluster sizes, plus MR-BFS at the largest cluster as the lower bound.
// The paper's headline: near-linear runtime in |E| despite the quadratic
// worst case, attributed to the small-world property.
func Fig8(sc Scale, nodeCounts []int) ([]Fig8Point, *stats.Figure, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	fig := stats.NewFigure("Fig 8: runtime scalability with graph size",
		"edges", "runtime seconds")
	var points []Fig8Point
	series := make(map[int]*stats.Series, len(nodeCounts))
	for _, n := range nodeCounts {
		series[n] = fig.AddSeries(fmt.Sprintf("FF5(%dm)", n))
	}
	bfsSeries := fig.AddSeries(fmt.Sprintf("BFS(%dm)", nodeCounts[len(nodeCounts)-1]))

	for i, base := range chain {
		in, err := sc.withSuperST(base, sc.W)
		if err != nil {
			return nil, nil, err
		}
		for _, nodes := range nodeCounts {
			cluster := sc.newCluster(nodes)
			res, err := runQuiescent(cluster, in, core.Options{Variant: core.FF5})
			if err != nil {
				return nil, nil, err
			}
			var shuffle int64
			for _, rs := range res.RoundStats {
				shuffle += rs.ShuffleBytes
			}
			points = append(points, Fig8Point{
				Graph: sc.Chain[i].Name, Edges: len(base.Edges), Nodes: nodes,
				Algo: "FF5", Rounds: res.Rounds, MaxFlow: res.MaxFlow, SimTime: res.TotalSimTime,
				ShuffleBytes: shuffle,
			})
			series[nodes].Add(float64(len(base.Edges)), res.TotalSimTime.Seconds())
		}
		cluster := sc.newCluster(nodeCounts[len(nodeCounts)-1])
		bfs, err := core.RunBFS(cluster, in, 0, "")
		if err != nil {
			return nil, nil, err
		}
		points = append(points, Fig8Point{
			Graph: sc.Chain[i].Name, Edges: len(base.Edges), Nodes: nodeCounts[len(nodeCounts)-1],
			Algo: "BFS", Rounds: bfs.Rounds, SimTime: bfs.TotalSimTime,
		})
		bfsSeries.Add(float64(len(base.Edges)), bfs.TotalSimTime.Seconds())
	}
	return points, fig, nil
}

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Config  string
	Rounds  int
	MaxFlow int64
	SimTime time.Duration
	Shuffle int64
}

// AblationTechniques quantifies the Section III-B design choices on the
// smallest chain graph: bi-directional search (claimed to halve rounds)
// and multiple excess paths (claimed the largest round reduction).
func AblationTechniques(sc Scale) ([]AblationRow, *stats.Table, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	in, err := sc.withSuperST(chain[0], sc.W)
	if err != nil {
		return nil, nil, err
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"full (bidir + multipath k=4)", core.Options{Variant: core.FF2}},
		{"no bidirectional search", core.Options{Variant: core.FF2, DisableBidirectional: true}},
		{"no multiple paths (k=1)", core.Options{Variant: core.FF2, DisableMultiPaths: true}},
		{"neither", core.Options{Variant: core.FF2, DisableBidirectional: true, DisableMultiPaths: true}},
	}
	var rows []AblationRow
	t := stats.NewTable("Ablation: parallelization techniques (Section III-B)",
		"Config", "Rounds", "|f*|", "SimTime", "Shuffle")
	for _, cfg := range configs {
		cluster := sc.newCluster(sc.Nodes)
		res, err := runQuiescent(cluster, in, cfg.opts)
		if err != nil {
			return nil, nil, err
		}
		var shuffle int64
		for _, rs := range res.RoundStats {
			shuffle += rs.ShuffleBytes
		}
		rows = append(rows, AblationRow{
			Config: cfg.name, Rounds: res.Rounds, MaxFlow: res.MaxFlow,
			SimTime: res.TotalSimTime, Shuffle: shuffle,
		})
		t.AddRow(cfg.name, res.Rounds, stats.FormatCount(res.MaxFlow),
			stats.FormatDuration(res.TotalSimTime), stats.FormatBytes(shuffle))
	}
	return rows, t, nil
}

// MRBSPRow is one line of the MapReduce-versus-Pregel comparison.
type MRBSPRow struct {
	Engine    string
	Rounds    int
	MaxFlow   int64
	DataBytes int64 // shuffle bytes (MR) or message bytes (BSP)
	WallTime  time.Duration
	SimTime   time.Duration // zero for BSP (no cluster cost model)
}

// CompareMRBSP tests the paper's closing conjecture ("the ideas
// presented in this paper also translate to Pregel") by running the MR
// FF5 implementation and the BSP translation on the same workload. The
// expected shape: equal flow values, same-order round counts, and BSP
// data volume far below FF1's shuffle (master records never travel).
func CompareMRBSP(sc Scale) ([]MRBSPRow, *stats.Table, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	in, err := sc.withSuperST(chain[0], sc.W)
	if err != nil {
		return nil, nil, err
	}
	var rows []MRBSPRow
	for _, variant := range []core.Variant{core.FF1, core.FF5} {
		cluster := sc.newCluster(sc.Nodes)
		res, err := runQuiescent(cluster, in, core.Options{Variant: variant})
		if err != nil {
			return nil, nil, err
		}
		var shuffle int64
		for _, rs := range res.RoundStats {
			shuffle += rs.ShuffleBytes
		}
		rows = append(rows, MRBSPRow{
			Engine: "MR-" + variant.String(), Rounds: res.Rounds, MaxFlow: res.MaxFlow,
			DataBytes: shuffle, WallTime: res.TotalWallTime, SimTime: res.TotalSimTime,
		})
	}
	bsp, err := core.RunBSP(in, core.BSPOptions{Workers: sc.Nodes * sc.SlotsPerNode})
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, MRBSPRow{
		Engine: "BSP-FF", Rounds: bsp.Supersteps, MaxFlow: bsp.MaxFlow,
		DataBytes: bsp.MessageBytes, WallTime: bsp.WallTime,
	})

	t := stats.NewTable("MapReduce vs Pregel/BSP (Section II-B conjecture)",
		"Engine", "Rounds", "|f*|", "Data moved", "WallTime")
	for _, r := range rows {
		t.AddRow(r.Engine, r.Rounds, stats.FormatCount(r.MaxFlow),
			stats.FormatBytes(r.DataBytes), stats.FormatDuration(r.WallTime))
	}
	return rows, t, nil
}

// AblationCombiner reproduces the paper's Section IV-B footnote: "we do
// not use any combiners as we found worse performance. As a rule of
// thumb, combiners are only cost-effective if the map output can be
// aggregated sufficiently, i.e. by 20-30%." The sweep runs FF2 with and
// without the fragment combiner and reports shuffle volume and time.
func AblationCombiner(sc Scale) ([]AblationRow, *stats.Table, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	in, err := sc.withSuperST(chain[0], sc.W)
	if err != nil {
		return nil, nil, err
	}
	var rows []AblationRow
	t := stats.NewTable("Ablation: map-side combiner (Section IV-B footnote)",
		"Config", "Rounds", "|f*|", "SimTime", "WallTime", "Shuffle")
	for _, useCombiner := range []bool{false, true} {
		name := "no combiner"
		if useCombiner {
			name = "fragment combiner"
		}
		cluster := sc.newCluster(sc.Nodes)
		res, err := runQuiescent(cluster, in, core.Options{Variant: core.FF2, UseCombiner: useCombiner})
		if err != nil {
			return nil, nil, err
		}
		var shuffle int64
		for _, rs := range res.RoundStats {
			shuffle += rs.ShuffleBytes
		}
		rows = append(rows, AblationRow{
			Config: name, Rounds: res.Rounds, MaxFlow: res.MaxFlow,
			SimTime: res.TotalSimTime, Shuffle: shuffle,
		})
		t.AddRow(name, res.Rounds, stats.FormatCount(res.MaxFlow),
			stats.FormatDuration(res.TotalSimTime), stats.FormatDuration(res.TotalWallTime),
			stats.FormatBytes(shuffle))
	}
	return rows, t, nil
}

// AblationK sweeps the per-vertex excess-path limit k (Section III-B3:
// "the larger the k, the less likely a vertex will become inactive ...
// however, the overhead ... also increases").
func AblationK(sc Scale, ks []int) ([]AblationRow, *stats.Table, error) {
	chain, err := sc.BuildChain()
	if err != nil {
		return nil, nil, err
	}
	in, err := sc.withSuperST(chain[0], sc.W)
	if err != nil {
		return nil, nil, err
	}
	var rows []AblationRow
	t := stats.NewTable("Ablation: excess-path limit k", "k", "Rounds", "|f*|", "SimTime", "Shuffle")
	for _, k := range ks {
		cluster := sc.newCluster(sc.Nodes)
		res, err := runQuiescent(cluster, in, core.Options{Variant: core.FF2, K: k})
		if err != nil {
			return nil, nil, err
		}
		var shuffle int64
		for _, rs := range res.RoundStats {
			shuffle += rs.ShuffleBytes
		}
		rows = append(rows, AblationRow{
			Config: fmt.Sprintf("k=%d", k), Rounds: res.Rounds, MaxFlow: res.MaxFlow,
			SimTime: res.TotalSimTime, Shuffle: shuffle,
		})
		t.AddRow(k, res.Rounds, stats.FormatCount(res.MaxFlow),
			stats.FormatDuration(res.TotalSimTime), stats.FormatBytes(shuffle))
	}
	return rows, t, nil
}
