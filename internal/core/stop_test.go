package core

import (
	"bytes"
	"reflect"
	"testing"

	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/trace"
)

// This file holds the stopping rules to each other. A run under the
// default rule (TerminationMaximal) must be exactly the quiescent run cut
// at the round whose accepted flow is maximum: same files, same round
// counters, and nothing accepted in the rounds it skips.

// directedCase is a Barabási-Albert graph in which every third edge is
// directed, in a random orientation, so the residual check has to honour
// directed reverse capacities.
func directedCase() diffCase {
	return diffCase{"ba-n100-directed", 17, func(seed int64) (*graph.Input, error) {
		in, err := graphgen.BarabasiAlbert(100, 3, seed)
		if err != nil {
			return nil, err
		}
		graphgen.RandomCapacities(in, 6, seed+1)
		for i := 0; i < len(in.Edges); i += 3 {
			e := &in.Edges[i]
			e.Directed = true
			if i%2 == 0 {
				e.U, e.V = e.V, e.U
			}
		}
		in.Source, in.Sink = graphgen.PickEndpoints(in)
		return in, nil
	}}
}

// disconnectedCase is two disjoint Watts-Strogatz graphs with the source
// in one and the sink in the other: the flow is 0 from the start, so the
// default rule ends the run after round #0.
func disconnectedCase() diffCase {
	return diffCase{"ws-2x40-no-path", 18, func(seed int64) (*graph.Input, error) {
		in, err := graphgen.WattsStrogatz(40, 4, 0.2, seed)
		if err != nil {
			return nil, err
		}
		n := in.NumVertices
		for _, e := range in.Edges[:len(in.Edges):len(in.Edges)] {
			e.U, e.V = e.U+graph.VertexID(n), e.V+graph.VertexID(n)
			in.Edges = append(in.Edges, e)
		}
		in.NumVertices = 2 * n
		in.Source, in.Sink = 0, graph.VertexID(2*n-1)
		return in, nil
	}}
}

// stopRun is one KeepIntermediate run of the prefix differential.
type stopRun struct {
	res     *Result
	cluster *mapreduce.Cluster
	events  []trace.ParsedEvent
}

// runStop runs in under one stopping rule, checks the flow against want
// and the persisted state with Validate, and returns the run with its
// exported trace.
func runStop(t *testing.T, cluster *mapreduce.Cluster, in *graph.Input, variant Variant, term TerminationMode, want int64) stopRun {
	t.Helper()
	tr := trace.New()
	opts := Options{Variant: variant, KeepIntermediate: true, DeterministicAccept: true,
		Termination: term, Tracer: tr}
	res, err := Run(cluster, in, opts)
	if err != nil {
		t.Fatalf("%s: %v", term, err)
	}
	if res.MaxFlow != want {
		t.Fatalf("%s: max flow %d, Dinic says %d", term, res.MaxFlow, want)
	}
	if err := Validate(cluster.FS, in, opts, res); err != nil {
		t.Fatalf("%s: %v", term, err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return stopRun{res: res, cluster: cluster, events: events}
}

// checkStopTrace checks what the trace says about the stop: the run span
// names the rule, and under the maximality rule round #0 and every round
// that accepted a path carry the check's duration.
func checkStopTrace(t *testing.T, r stopRun, term TerminationMode) {
	t.Helper()
	for _, e := range r.events {
		switch e.Cat {
		case trace.CatRun:
			if got := e.Args[trace.AttrStop]; got != term.String() {
				t.Errorf("%s: run span says stop %v", term, got)
			}
		case trace.CatRound:
			round, _ := e.Int(trace.AttrRound)
			paths, _ := e.Int(trace.AttrAPaths)
			_, certified := e.Int(trace.AttrCertifyUS)
			if want := term == TerminationMaximal && (round == 0 || paths > 0); certified != want {
				t.Errorf("%s: round %d (%d paths) has %s: %v, want %v",
					term, round, paths, trace.AttrCertifyUS, certified, want)
			}
		}
	}
}

// checkStopPrefix runs in under the default and the quiescent rule, each
// on a fresh cluster from newCluster, and checks that the default run is
// the quiescent run cut at the maximum.
func checkStopPrefix(t *testing.T, newCluster func() *mapreduce.Cluster, in *graph.Input, variant Variant, want int64) {
	t.Helper()
	short := runStop(t, newCluster(), in, variant, TerminationMaximal, want)
	long := runStop(t, newCluster(), in, variant, TerminationQuiescent, want)
	checkStopTrace(t, short, TerminationMaximal)
	checkStopTrace(t, long, TerminationQuiescent)
	if short.res.Rounds >= long.res.Rounds {
		t.Fatalf("default rule ran %d rounds, quiescent rule %d", short.res.Rounds, long.res.Rounds)
	}
	if want == 0 && short.res.Rounds != 0 {
		t.Errorf("flow 0 took %d rounds; the check before round 1 proves it maximum", short.res.Rounds)
	}

	// Every file the default run left — round partitions, input and the
	// AugmentedEdges tables, the pending one included — is the quiescent
	// run's file of the same name.
	names := short.cluster.FS.List("")
	if len(names) == 0 {
		t.Fatal("default run left no files")
	}
	for _, name := range names {
		a, err := short.cluster.FS.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := long.cluster.FS.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: not in the quiescent run: %v", name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: %d bytes differ from the quiescent run's %d", name, len(a), len(b))
		}
	}

	n := len(short.res.RoundStats)
	if got, want := comparableRounds(short.res.RoundStats), comparableRounds(long.res.RoundStats[:n]); !reflect.DeepEqual(got, want) {
		t.Errorf("round stats are not a prefix of the quiescent run's:\n got %+v\nwant %+v", got, want)
	}
	for _, st := range long.res.RoundStats[n:] {
		if st.APaths != 0 {
			t.Errorf("quiescent round %d accepted %d paths past the maximum", st.Round, st.APaths)
		}
	}
}

// TestStopAtMaximumIsPrefix is the prefix differential of the stopping
// rules on the simulated backend, for every variant.
func TestStopAtMaximumIsPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	cases := append(diffCases(), directedCase(), disconnectedCase())
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			in, err := tc.build(tc.seed)
			if err != nil {
				t.Fatalf("[%s seed=%d] build: %v", tc.name, tc.seed, err)
			}
			want := dinicValue(t, in)
			for _, variant := range allVariants() {
				variant := variant
				t.Run(variant.String(), func(t *testing.T) {
					t.Parallel()
					checkStopPrefix(t, func() *mapreduce.Cluster { return testCluster(3) }, in, variant, want)
				})
			}
		})
	}
}

// TestStopAtMaximumIsPrefixDistributed runs the prefix differential on
// the distributed backend with three workers.
func TestStopAtMaximumIsPrefixDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	tc := diffCases()[5] // ba-n120-super-st
	in, err := tc.build(tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	h := distHarness(t, distmr.HarnessConfig{Workers: 3})
	checkStopPrefix(t, func() *mapreduce.Cluster {
		c := testCluster(3)
		c.Distributed = h.Master
		return c
	}, in, FF5, dinicValue(t, in))
}

// TestResidualCut is the table test of the maximality check: the BFS
// finds an s-t path exactly when the flows leave one, and otherwise the
// cut it leaves has the flow's value. certify turns a cut that does not
// match the run's flow value into an internal error.
func TestResidualCut(t *testing.T) {
	// s=0, t=3. Max flow 3: the cut around {0,1,2} is 1->3 (2) plus 2-3 (1).
	in := &graph.Input{NumVertices: 4, Source: 0, Sink: 3, Edges: []graph.InputEdge{
		{U: 0, V: 1, Cap: 3},
		{U: 1, V: 3, Cap: 2, Directed: true},
		{U: 0, V: 2, Cap: 2},
		{U: 2, V: 3, Cap: 1},
		{U: 1, V: 2, Cap: 1},
		{U: 3, V: 2, Cap: 5, Directed: true}, // points away from t
	}}
	for _, tc := range []struct {
		name      string
		flows     []int64
		value     int64
		reachable bool
	}{
		{"zero flow", []int64{0, 0, 0, 0, 0, 0}, 0, true},
		{"not maximal", []int64{2, 2, 0, 0, 0, 0}, 2, true},
		{"maximal", []int64{2, 2, 1, 1, 0, 0}, 3, false},
		{"maximal with reverse flow on 1-2", []int64{1, 2, 2, 1, -1, 0}, 3, false},
		{"flow on 3->2 opens 2->3", []int64{2, 2, 1, 1, 0, 1}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newResidualGraph(in)
			if got := g.sinkReachable(tc.flows); got != tc.reachable {
				t.Fatalf("reachable %v, want %v", got, tc.reachable)
			}
			if got := ResidualReachable(in, tc.flows); got != tc.reachable {
				t.Errorf("ResidualReachable %v, want %v", got, tc.reachable)
			}
			if tc.reachable {
				return
			}
			if cut := g.cutCapacity(); cut != tc.value {
				t.Errorf("cut capacity %d, want the flow value %d", cut, tc.value)
			}
			for _, claimed := range []int64{tc.value, tc.value + 1} {
				l := &ffLoop{cert: g, flows: tc.flows, result: &Result{MaxFlow: claimed}}
				maximal, err := l.certify(nil)
				if claimed == tc.value && (err != nil || !maximal) {
					t.Errorf("certify at the flow value: maximal %v, %v", maximal, err)
				}
				if claimed != tc.value && err == nil {
					t.Errorf("certify accepted flow value %d for a cut of %d", claimed, tc.value)
				}
			}
		})
	}
}
