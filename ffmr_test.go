package ffmr_test

import (
	"strings"
	"testing"

	"ffmr"
)

func diamond() *ffmr.Graph {
	g := ffmr.NewGraph(4)
	g.SetSource(0)
	g.SetSink(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	return g
}

func TestComputeDefaults(t *testing.T) {
	res, err := ffmr.Compute(diamond())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFlow != 2 {
		t.Fatalf("max flow = %d, want 2", res.MaxFlow)
	}
	if res.Variant != ffmr.FF5 {
		t.Errorf("default variant = %v, want FF5", res.Variant)
	}
	if res.Rounds < 1 || len(res.RoundStats) != res.Rounds+1 {
		t.Errorf("rounds = %d, stats = %d", res.Rounds, len(res.RoundStats))
	}
	if res.GraphBytes <= 0 || res.MaxGraphBytes < res.GraphBytes {
		t.Errorf("graph bytes %d / max %d", res.GraphBytes, res.MaxGraphBytes)
	}
}

func TestComputeAllVariantsAgree(t *testing.T) {
	g, err := ffmr.WattsStrogatzGraph(400, 6, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ffmr.ComputeSequential(g, ffmr.AlgoDinic)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []ffmr.Variant{ffmr.FF1, ffmr.FF2, ffmr.FF3, ffmr.FF4, ffmr.FF5} {
		res, err := ffmr.Compute(g, ffmr.WithVariant(v), ffmr.WithNodes(3))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.MaxFlow != want {
			t.Errorf("%v computed %d, dinic %d", v, res.MaxFlow, want)
		}
	}
}

func TestComputeOptions(t *testing.T) {
	g := diamond()
	res, err := ffmr.Compute(g,
		ffmr.WithVariant(ffmr.FF2),
		ffmr.WithNodes(2),
		ffmr.WithSlotsPerNode(2),
		ffmr.WithK(2),
		ffmr.WithReducers(3),
		ffmr.WithMaxRounds(50),
		ffmr.WithBlockSize(1024),
		ffmr.WithTermination(ffmr.TerminationMaximal),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFlow != 2 {
		t.Fatalf("max flow = %d", res.MaxFlow)
	}
}

func TestComputeAblationOptions(t *testing.T) {
	g, err := ffmr.BarabasiAlbertGraph(300, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ffmr.ComputeSequential(g, ffmr.AlgoDinic)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]ffmr.Option{
		{ffmr.WithoutBidirectionalSearch()},
		{ffmr.WithoutMultiplePaths()},
		{ffmr.WithoutBidirectionalSearch(), ffmr.WithoutMultiplePaths()},
	} {
		res, err := ffmr.Compute(g, append(opts, ffmr.WithVariant(ffmr.FF2))...)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxFlow != want {
			t.Errorf("ablation run computed %d, want %d", res.MaxFlow, want)
		}
	}
}

func TestComputeRealisticCost(t *testing.T) {
	fast, err := ffmr.Compute(diamond())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ffmr.Compute(diamond(), ffmr.WithRealisticCost())
	if err != nil {
		t.Fatal(err)
	}
	if slow.SimTime <= fast.SimTime {
		t.Errorf("realistic sim time %v not larger than zero-cost %v", slow.SimTime, fast.SimTime)
	}
}

func TestComputeInvalidGraph(t *testing.T) {
	g := ffmr.NewGraph(2)
	g.AddEdge(0, 5, 1) // out of range
	if _, err := ffmr.Compute(g); err == nil {
		t.Fatal("invalid graph accepted")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed out-of-range edge")
	}
}

func TestBFSFacade(t *testing.T) {
	g := ffmr.NewGraph(5)
	g.SetSource(0)
	g.SetSink(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	res, err := ffmr.BFS(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceSinkDistance != 4 {
		t.Errorf("distance = %d, want 4", res.SourceSinkDistance)
	}
	if res.Visited != 5 {
		t.Errorf("visited = %d, want 5", res.Visited)
	}
}

func TestComputeBSP(t *testing.T) {
	g, err := ffmr.BarabasiAlbertGraph(400, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ffmr.ComputeSequential(g, ffmr.AlgoDinic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ffmr.ComputeBSP(g, ffmr.WithSlotsPerNode(2), ffmr.WithNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFlow != want {
		t.Fatalf("BSP flow %d, dinic %d", res.MaxFlow, want)
	}
	if res.Supersteps < 2 || res.Messages == 0 {
		t.Errorf("implausible BSP stats: %+v", res)
	}
	// Ablation options must not change the value.
	res2, err := ffmr.ComputeBSP(g, ffmr.WithoutBidirectionalSearch(), ffmr.WithoutMultiplePaths())
	if err != nil {
		t.Fatal(err)
	}
	if res2.MaxFlow != want {
		t.Fatalf("BSP ablation flow %d, want %d", res2.MaxFlow, want)
	}
}

func TestComputeSequentialNames(t *testing.T) {
	g := diamond()
	for _, algo := range []string{
		ffmr.AlgoFordFulkerson, ffmr.AlgoEdmondsKarp, ffmr.AlgoDinic,
		ffmr.AlgoPushRelabel, ffmr.AlgoCapScaling,
	} {
		got, err := ffmr.ComputeSequential(g, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got != 2 {
			t.Errorf("%s = %d, want 2", algo, got)
		}
	}
	if _, err := ffmr.ComputeSequential(g, "bogus"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestMinCutFacade(t *testing.T) {
	g := diamond()
	side, cut, err := ffmr.MinCut(g)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 2 {
		t.Errorf("cut = %d, want 2", cut)
	}
	if !side[0] || side[3] {
		t.Errorf("cut sides wrong: %v", side)
	}
}

func TestGeneratorsFacade(t *testing.T) {
	tests := []struct {
		name string
		gen  func() (*ffmr.Graph, error)
	}{
		{"watts-strogatz", func() (*ffmr.Graph, error) { return ffmr.WattsStrogatzGraph(100, 4, 0.1, 1) }},
		{"barabasi-albert", func() (*ffmr.Graph, error) { return ffmr.BarabasiAlbertGraph(100, 3, 1) }},
		{"rmat", func() (*ffmr.Graph, error) { return ffmr.RMATGraph(7, 4, 1) }},
		{"erdos-renyi", func() (*ffmr.Graph, error) { return ffmr.ErdosRenyiGraph(100, 200, 1) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("generated graph invalid: %v", err)
			}
			if g.NumEdges() == 0 {
				t.Fatal("no edges generated")
			}
			if g.Source() == g.Sink() {
				t.Fatal("source equals sink")
			}
		})
	}
}

func TestFacebookChainFacade(t *testing.T) {
	chain, err := ffmr.FacebookChain([]ffmr.FacebookChainSpec{
		{Name: "A", Vertices: 200},
		{Name: "B", Vertices: 500},
	}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain length %d", len(chain))
	}
	if chain[0].NumVertices() != 200 || chain[1].NumVertices() != 500 {
		t.Errorf("sizes: %d, %d", chain[0].NumVertices(), chain[1].NumVertices())
	}
	if chain[0].NumEdges() >= chain[1].NumEdges() {
		t.Error("edges not nested-increasing")
	}
}

func TestDecomposeHighDegreeFacade(t *testing.T) {
	g, err := ffmr.BarabasiAlbertGraph(400, 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ffmr.ComputeSequential(g, ffmr.AlgoDinic)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := g.DecomposeHighDegree(10)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumVertices() <= g.NumVertices() {
		t.Error("no clones added")
	}
	got, err := ffmr.ComputeSequential(dec, ffmr.AlgoDinic)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decomposition changed flow: %d, want %d", got, want)
	}
	// The distributed algorithm works on the decomposed graph too.
	res, err := ffmr.Compute(dec, ffmr.WithVariant(ffmr.FF5))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFlow != want {
		t.Fatalf("FF5 on decomposed graph: %d, want %d", res.MaxFlow, want)
	}
}

func TestVariantString(t *testing.T) {
	if ffmr.FF3.String() != "FF3" {
		t.Errorf("FF3 prints as %q", ffmr.FF3)
	}
	if !strings.Contains(ffmr.Variant(99).String(), "99") {
		t.Errorf("unknown variant prints as %q", ffmr.Variant(99))
	}
}

func TestGraphAccessors(t *testing.T) {
	g := ffmr.NewGraph(10)
	if g.Source() != 0 || g.Sink() != 9 {
		t.Errorf("defaults: s=%d t=%d", g.Source(), g.Sink())
	}
	g.AddArc(1, 2, 5)
	if g.NumVertices() != 10 || g.NumEdges() != 1 {
		t.Errorf("counts: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	deg := g.Degrees()
	if deg[1] != 1 || deg[2] != 1 || deg[0] != 0 {
		t.Errorf("degrees: %v", deg)
	}
	g.RandomizeCapacities(7, 1)
}
