package prflow

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/trace"
)

// TestPrflowProtocolPinned holds the engine to the flows, pushes and
// relabels the byte-encoded Pregel vertex program produced before the
// loop moved to flat arrays: the same two-phase protocol on another
// substrate must move no push and no relabel. rounds and roundStats were
// derived from that program's supersteps, one round per push+update pair.
func TestPrflowProtocolPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Input, error)

		maxFlow           int64
		rounds            int
		pushes, relabels  int64
		flows, roundStats uint64 // FNV-1a hashes, see below
	}{
		{
			name:    "grid-15x15",
			build:   func() (*graph.Input, error) { return graphgen.Grid(15, 15) },
			maxFlow: 2, rounds: 54, pushes: 80, relabels: 13,
			flows: 0x171d6aeafb292b25, roundStats: 0xa5aacac54d6ec44b,
		},
		{
			name: "ba-1",
			build: func() (*graph.Input, error) {
				base, err := graphgen.BarabasiAlbert(60, 2, 1)
				if err != nil {
					return nil, err
				}
				in, err := graphgen.AttachSuperSourceSink(base, 3, 3, 201)
				if err != nil {
					return nil, err
				}
				graphgen.RandomCapacities(in, 20, 1)
				return in, nil
			},
			maxFlow: 28, rounds: 83, pushes: 320, relabels: 208,
			flows: 0xea746b5822264b22, roundStats: 0x860f851d64712448,
		},
		{
			name:    "grid-63x63",
			build:   func() (*graph.Input, error) { return graphgen.Grid(63, 63) },
			maxFlow: 2, rounds: 166, pushes: 288, relabels: 21,
			flows: 0x3e417bc192ed2c25, roundStats: 0x20fad7706dd635cb,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			cluster := testCluster(3)
			opts := core.Options{Engine: EngineName, Tracer: trace.New(), KeepIntermediate: true}
			res, err := core.Run(cluster, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			// The flows hash the result's vector, one "flow\n" line per
			// edge, once Validate has held it to the persisted records;
			// the round stats hash every RoundStat's "Submitted FlowDelta
			// ActiveVertices\n" line, in round order.
			if err := core.Validate(cluster.FS, in, opts.WithDefaults(cluster.Nodes*cluster.SlotsPerNode), res); err != nil {
				t.Fatal(err)
			}
			fh := fnv.New64a()
			for _, f := range res.Flows {
				fmt.Fprintf(fh, "%d\n", f)
			}
			h := fnv.New64a()
			for _, st := range res.RoundStats {
				fmt.Fprintf(h, "%d %d %d\n", st.Submitted, st.FlowDelta, st.ActiveVertices)
			}
			attr := func(key string) int64 {
				v, ok := res.RunSpan.Int(key)
				if !ok {
					t.Fatalf("run span has no %q", key)
				}
				return v
			}
			const format = "maxFlow %d rounds %d pushes %d relabels %d flows %#x roundStats %#x"
			got := fmt.Sprintf(format, res.MaxFlow, res.Rounds, attr("pushes"), attr("relabels"), fh.Sum64(), h.Sum64())
			want := fmt.Sprintf(format, tc.maxFlow, tc.rounds, tc.pushes, tc.relabels, tc.flows, tc.roundStats)
			if got != want {
				t.Errorf("protocol moved:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestPrflowLoopAllocs: once the network is built, the loop allocates
// nothing that grows with the graph or with the number of rounds.
// MemStats.Mallocs counts the whole process, so each size is measured
// several times on a fresh network with GOMAXPROCS(1), as
// testing.AllocsPerRun does, and the minima are compared: a stray
// allocation by another goroutine cannot fail the test, while one
// allocation per round shows in every sample.
func TestPrflowLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	loopAllocs := func(side int) (allocs uint64, rounds int) {
		in, err := graphgen.Grid(side, side)
		if err != nil {
			t.Fatal(err)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i := 0; i < 5; i++ {
			nw := newNetwork(in)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			rounds, err = nw.run(1_000_000, func(core.RoundStat) {})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if n := m1.Mallocs - m0.Mallocs; i == 0 || n < allocs {
				allocs = n
			}
		}
		return allocs, rounds
	}
	loopAllocs(15) // warm-up: the first run pays one-time runtime costs
	small, smallRounds := loopAllocs(31)
	large, largeRounds := loopAllocs(63)
	t.Logf("loop allocations: %d over %d rounds on 31x31, %d over %d rounds on 63x63",
		small, smallRounds, large, largeRounds)
	if small != large {
		t.Errorf("the loop allocates %d objects on 31x31 and %d on 63x63, want the same", small, large)
	}
}

// TestDinicDifferential: on small random graphs with directed, parallel
// and zero-capacity edges, the engine's flow is Dinic's and its persisted
// state is valid.
func TestDinicDifferential(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		in, err := graphgen.ErdosRenyi(n, n+rng.Intn(2*n), seed)
		if err != nil {
			t.Fatal(err)
		}
		in.Source, in.Sink = 0, graph.VertexID(n-1)
		for i := range in.Edges {
			e := &in.Edges[i]
			e.Cap = rng.Int63n(8) // zero one time in eight
			e.Directed = rng.Intn(3) == 0
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
		}
		for k := rng.Intn(4); k > 0; k-- {
			e := in.Edges[rng.Intn(len(in.Edges))]
			e.Cap, e.Directed = rng.Int63n(8), rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			in.Edges = append(in.Edges, e)
		}
		t.Run(fmt.Sprintf("er-%d", seed), func(t *testing.T) { runBoth(t, in) })
	}
}

// TestIsolatedTerminals: with no edge at s or t the flow is 0, found in
// one round: the first update finds no excess anywhere.
func TestIsolatedTerminals(t *testing.T) {
	for _, edges := range [][]graph.InputEdge{nil, {{U: 1, V: 2, Cap: 5}}} {
		in := &graph.Input{NumVertices: 4, Source: 0, Sink: 3, Edges: edges}
		res, err := core.Run(testCluster(3), in, core.Options{Engine: EngineName})
		if err != nil {
			t.Fatalf("%d edges: %v", len(edges), err)
		}
		if res.MaxFlow != 0 || res.Rounds != 1 {
			t.Errorf("%d edges: flow %d in %d rounds, want 0 in 1", len(edges), res.MaxFlow, res.Rounds)
		}
	}
}
