// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section V), one benchmark per artifact, plus
// micro-benchmarks for the performance-sensitive building blocks. Run
// with:
//
//	go test -bench=. -benchmem
//
// Macro-benchmarks execute a full multi-round MapReduce computation per
// iteration at a scaled-down size and report the paper's headline
// quantities (rounds, flow, shuffle bytes) as custom metrics; see
// EXPERIMENTS.md for paper-versus-measured comparisons.
package ffmr_test

import (
	"fmt"
	"testing"

	"ffmr"
	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/experiments"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/maxflow"
)

// benchScale sizes the macro-benchmarks: large enough that the FF1->FF5
// ordering and round behaviour show, small enough for -bench=. to finish
// in minutes.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Chain: []graphgen.FBSpec{
			{Name: "FB1", Vertices: 1_000},
			{Name: "FB2", Vertices: 2_500},
			{Name: "FB3", Vertices: 4_000},
			{Name: "FB4", Vertices: 6_500},
			{Name: "FB5", Vertices: 10_000},
			{Name: "FB6", Vertices: 16_000},
		},
		Attach:       4,
		Seed:         1,
		W:            8,
		MinDegree:    8,
		Nodes:        4,
		SlotsPerNode: 4,
		Realistic:    false,
	}
}

// BenchmarkGraphsTable regenerates the Section V graph table (vertices,
// edges, Size, Max Size per chain member).
func BenchmarkGraphsTable(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.GraphsTable(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(float64(last.SizeBytes), "FB6-size-bytes")
			b.ReportMetric(float64(last.MaxSizeBytes), "FB6-maxsize-bytes")
		}
	}
}

// BenchmarkFig5MaxFlowValue regenerates Fig. 5: runtime and rounds versus
// max-flow value (w sweep on the largest graph, FF5). The paper's
// headline is rounds staying nearly constant over a 128x flow range.
func BenchmarkFig5MaxFlowValue(b *testing.B) {
	sc := benchScale()
	ws := []int{1, 4, 16, 64}
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig5(sc, ws)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := points[0], points[len(points)-1]
			b.ReportMetric(float64(last.MaxFlow)/float64(first.MaxFlow), "flow-growth-x")
			b.ReportMetric(float64(last.Rounds)-float64(first.Rounds), "rounds-growth")
		}
	}
}

// BenchmarkFig6Variants regenerates Fig. 6: one sub-benchmark per
// algorithm on the FB1-scale graph, so relative per-variant cost (the
// paper's 5.4x FF1->FF5 on FB1) is read directly off the ns/op column,
// and allocation behaviour (the FF4 claim) off allocs/op.
func BenchmarkFig6Variants(b *testing.B) {
	sc := benchScale()
	chain, err := sc.BuildChain()
	if err != nil {
		b.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(chain[0], sc.W, sc.MinDegree, sc.Seed+100)
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []core.Variant{core.FF1, core.FF2, core.FF3, core.FF4, core.FF5} {
		b.Run(variant.String(), func(b *testing.B) {
			var rounds, shuffle int64
			for i := 0; i < b.N; i++ {
				cluster := newBenchCluster(sc)
				res, err := core.Run(cluster, in, core.Options{Variant: variant})
				if err != nil {
					b.Fatal(err)
				}
				rounds = int64(res.Rounds)
				shuffle = 0
				for _, rs := range res.RoundStats {
					shuffle += rs.ShuffleBytes
				}
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(shuffle), "shuffle-bytes")
		})
	}
	b.Run("BFS", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			cluster := newBenchCluster(sc)
			res, err := core.RunBFS(cluster, in, 0, "")
			if err != nil {
				b.Fatal(err)
			}
			rounds = int64(res.Rounds)
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkTable1RoundStats regenerates Table I: a full FF5 run on the
// largest chain graph with per-round aug_proc and shuffle statistics.
func BenchmarkTable1RoundStats(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table1(sc, sc.W)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var apaths, maxq int64
			for _, rs := range res.RoundStats {
				apaths += rs.APaths
				if rs.MaxQueue > maxq {
					maxq = rs.MaxQueue
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(apaths), "a-paths")
			b.ReportMetric(float64(maxq), "max-queue")
		}
	}
}

// BenchmarkFig7ShuffleBytes regenerates Fig. 7: total shuffle bytes per
// round for FF1/FF2/FF3/FF5; the custom metric is the total across
// rounds, whose strict decrease is the figure's claim.
func BenchmarkFig7ShuffleBytes(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		variants, _, err := experiments.Fig7(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, v := range variants {
				var total int64
				for _, bytes := range v.Rounds {
					total += bytes
				}
				b.ReportMetric(float64(total), v.Algo+"-bytes")
			}
		}
	}
}

// BenchmarkFig8Scalability regenerates Fig. 8: FF5 simulated runtime
// versus graph size at several cluster sizes plus the BFS lower bound.
func BenchmarkFig8Scalability(b *testing.B) {
	sc := benchScale()
	sc.Realistic = true
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig8(sc, []int{5, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				if p.Algo == "FF5" && p.Nodes == 20 {
					b.ReportMetric(p.SimTime.Seconds(), fmt.Sprintf("%s-20m-sec", p.Graph))
				}
			}
		}
	}
}

// BenchmarkAblationTechniques quantifies the Section III-B design
// choices (bi-directional search, multiple excess paths).
func BenchmarkAblationTechniques(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationTechniques(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			slugs := []string{"full", "no-bidir", "no-multipath", "neither"}
			for ri, r := range rows {
				if ri < len(slugs) {
					b.ReportMetric(float64(r.Rounds), slugs[ri]+"-rounds")
				}
			}
		}
	}
}

// BenchmarkAblationCombiner reproduces the paper's combiner footnote:
// the custom metric shows the (small) shuffle change a fragment combiner
// buys, and ns/op the CPU it costs.
func BenchmarkAblationCombiner(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationCombiner(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].Shuffle), "shuffle-plain")
			b.ReportMetric(float64(rows[1].Shuffle), "shuffle-combined")
		}
	}
}

// BenchmarkMRvsBSP runs the MapReduce FF5 implementation and the
// Pregel/BSP translation on the same workload (the paper's Section II-B
// conjecture), reporting rounds and data volume side by side.
func BenchmarkMRvsBSP(b *testing.B) {
	sc := benchScale()
	chain, err := sc.BuildChain()
	if err != nil {
		b.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(chain[0], sc.W, sc.MinDegree, sc.Seed+100)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MR-FF5", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := core.Run(newBenchCluster(sc), in, core.Options{Variant: core.FF5})
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("BSP", func(b *testing.B) {
		var steps int
		var bytes int64
		for i := 0; i < b.N; i++ {
			res, err := core.RunBSP(in, core.BSPOptions{Workers: sc.Nodes * sc.SlotsPerNode})
			if err != nil {
				b.Fatal(err)
			}
			steps = res.Supersteps
			bytes = res.MessageBytes
		}
		b.ReportMetric(float64(steps), "supersteps")
		b.ReportMetric(float64(bytes), "message-bytes")
	})
}

func newBenchCluster(sc experiments.Scale) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: sc.Nodes, BlockSize: 1 << 20, Replication: 2})
	c := mapreduce.NewCluster(sc.Nodes, sc.SlotsPerNode, fs)
	c.Cost = mapreduce.ZeroCostModel()
	return c
}

// BenchmarkSequentialSolvers compares the classical in-memory algorithms
// of Section II-A on a small-world workload — context for how much the
// MR layer costs versus raw computation.
func BenchmarkSequentialSolvers(b *testing.B) {
	base, err := graphgen.BarabasiAlbert(20000, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 16, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	net, err := maxflow.FromInput(in)
	if err != nil {
		b.Fatal(err)
	}
	for _, solver := range maxflow.Solvers() {
		b.Run(solver.Name, func(b *testing.B) {
			var flow int64
			for i := 0; i < b.N; i++ {
				flow = solver.Run(net.Clone(), int(in.Source), int(in.Sink))
			}
			b.ReportMetric(float64(flow), "flow")
		})
	}
}

// BenchmarkVertexCodec measures the record codec, the per-record cost
// every mapper and reducer pays. The "reuse" variant is the FF4 path.
func BenchmarkVertexCodec(b *testing.B) {
	v := &graph.VertexValue{
		Su: []graph.ExcessPath{{Edges: []graph.PathEdge{
			{ID: 1, From: 0, To: 1, Cap: 1, Fwd: true},
			{ID: 2, From: 1, To: 2, Cap: 1, Fwd: true},
			{ID: 3, From: 2, To: 3, Cap: 1, Fwd: true},
		}}},
		Tu: []graph.ExcessPath{{Edges: []graph.PathEdge{
			{ID: 9, From: 3, To: 4, Cap: 1, Fwd: true},
		}}},
		Eu: []graph.Edge{
			{To: 1, ID: 1, Cap: 1, RevCap: 1, Fwd: true},
			{To: 2, ID: 4, Cap: 1, RevCap: 1, Fwd: true},
			{To: 3, ID: 5, Cap: 1, RevCap: 1, Fwd: false},
			{To: 4, ID: 6, Cap: 1, RevCap: 1, Fwd: true},
		},
	}
	enc := graph.EncodeValue(v)

	b.Run("encode-fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = graph.EncodeValue(v)
		}
	})
	b.Run("encode-reuse", func(b *testing.B) {
		buf := make([]byte, 0, len(enc))
		for i := 0; i < b.N; i++ {
			buf = graph.AppendValue(buf[:0], v)
		}
	})
	b.Run("decode-fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.DecodeValue(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-reuse", func(b *testing.B) {
		var reused graph.VertexValue
		for i := 0; i < b.N; i++ {
			reused.Reset()
			if err := graph.DecodeValueInto(enc, &reused); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAccumulator measures path acceptance, aug_proc's hot loop.
func BenchmarkAccumulator(b *testing.B) {
	paths := make([]graph.ExcessPath, 256)
	for i := range paths {
		for h := 0; h < 8; h++ {
			paths[i].Edges = append(paths[i].Edges, graph.PathEdge{
				ID: graph.EdgeID(i*8 + h), From: graph.VertexID(h),
				To: graph.VertexID(h + 1), Cap: 4, Fwd: true,
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc core.Accumulator
		for p := range paths {
			acc.Accept(&paths[p], graph.CapInf)
		}
	}
}

// BenchmarkAugProcRPC measures the end-to-end cost of submitting
// candidate paths to the external accumulator over loopback TCP.
func BenchmarkAugProcRPC(b *testing.B) {
	srv, err := core.NewAugProcServer()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := core.DialAugProc(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	batch := make([]graph.ExcessPath, 16)
	for i := range batch {
		batch[i] = graph.ExcessPath{Edges: []graph.PathEdge{
			{ID: graph.EdgeID(i), From: 0, To: 1, Cap: 1, Fwd: true},
		}}
	}
	srv.BeginRound(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Submit(0, 0, 0, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	srv.EndRound()
}

// BenchmarkFacadeCompute exercises the public API end to end, the cost a
// downstream user sees.
func BenchmarkFacadeCompute(b *testing.B) {
	g, err := ffmr.BarabasiAlbertGraph(2000, 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	workload, err := g.AttachSuperSourceSink(4, 8, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ffmr.Compute(workload, ffmr.WithVariant(ffmr.FF5))
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxFlow == 0 {
			b.Fatal("zero flow")
		}
	}
}

// BenchmarkDistributed compares the simulated engine with the distmr
// backend — three in-process workers on real TCP sockets — on the same
// FF5 computation (baseline: BENCH_dist.json). The delta is the true
// cost of the distributed runtime: RPC task dispatch, the network
// shuffle serving spill segments between workers, heartbeats, and
// winner-only result merging, none of which the simulated engine pays.
func BenchmarkDistributed(b *testing.B) {
	in, err := graphgen.WattsStrogatz(400, 6, 0.1, 61)
	if err != nil {
		b.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, 62)

	newCluster := func() *mapreduce.Cluster {
		fs := dfs.New(dfs.Config{Nodes: 4, BlockSize: 64 << 10, Replication: 2})
		c := mapreduce.NewCluster(4, 4, fs)
		c.Cost = mapreduce.ZeroCostModel()
		return c
	}

	run := func(b *testing.B, backend mapreduce.Backend) {
		var flow, rounds int64
		for i := 0; i < b.N; i++ {
			cluster := newCluster()
			cluster.Distributed = backend
			res, err := core.Run(cluster, in, core.Options{Variant: core.FF5})
			if err != nil {
				b.Fatal(err)
			}
			flow, rounds = res.MaxFlow, int64(res.Rounds)
		}
		b.ReportMetric(float64(flow), "flow")
		b.ReportMetric(float64(rounds), "rounds")
	}

	b.Run("simulated", func(b *testing.B) { run(b, nil) })
	b.Run("distributed-3workers", func(b *testing.B) {
		h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: 3})
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		run(b, h.Master)
	})
}

// BenchmarkPortfolio measures the solver portfolio off the small-world
// regime: plain FFMR versus the core-reduced and push-relabel
// configurations the auto engine picks on a power-law graph with a
// thick peelable fringe and on a high-diameter grid. Every
// configuration is differential-checked inside experiments.Portfolio
// (all flows per instance must agree). Recorded in
// BENCH_portfolio.json; the headline: prflow beats plain FFMR on wall
// time on the grid, and the core reduction shrinks the shuffled volume
// on the power-law instance.
func BenchmarkPortfolio(b *testing.B) {
	sc := benchScale()
	// One chain entry sizes both instances: a 16,000-vertex power-law
	// graph and a 63x63 lattice (side = sqrt(n)/2).
	sc.Chain = []graphgen.FBSpec{{Name: "PL", Vertices: 16_000}}
	var last []experiments.PortfolioRow
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Portfolio(sc)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		name := r.Graph + "/" + r.Config
		b.ReportMetric(float64(r.Rounds), name+"-rounds")
		b.ReportMetric(float64(r.WallTime.Milliseconds()), name+"-wall-ms")
		b.ReportMetric(float64(r.ShuffleBytes), name+"-shuffle-bytes")
	}
}

// BenchmarkDynamic compares incremental (warm-restart) max-flow against
// cold recomputation over randomized update batches of growing size, on
// the FB1-scale graph under the realistic cost model. The headline
// metrics: warm rounds and warm simulated time stay below cold for small
// batches, converging toward cold as the batch size grows (crossover
// documented in EXPERIMENTS.md, recorded in BENCH_dynamic.json).
func BenchmarkDynamic(b *testing.B) {
	for _, size := range []int{5, 20, 80, 200} {
		size := size
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			sc := benchScale()
			// Warm restarts pay at most one re-augmentation wave, so the
			// advantage needs a graph where a cold run pays several: FB5
			// is the smallest chain member where that holds.
			sc.Chain = sc.Chain[4:5]
			sc.Realistic = true
			var last []experiments.WarmColdRow
			for i := 0; i < b.N; i++ {
				rows, _, err := experiments.WarmVsCold(sc, []int{size}, 2)
				if err != nil {
					b.Fatal(err)
				}
				last = rows
			}
			var warmR, coldR, warmMS, coldMS float64
			for _, r := range last {
				warmR += float64(r.WarmRounds)
				coldR += float64(r.ColdRounds)
				warmMS += float64(r.WarmSim.Milliseconds())
				coldMS += float64(r.ColdSim.Milliseconds())
			}
			n := float64(len(last))
			b.ReportMetric(warmR/n, "warm-rounds")
			b.ReportMetric(coldR/n, "cold-rounds")
			b.ReportMetric(warmMS/n, "warm-sim-ms")
			b.ReportMetric(coldMS/n, "cold-sim-ms")
			b.ReportMetric(coldMS/warmMS, "speedup-x")
		})
	}
}
