package prflow

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/pregel"
	"ffmr/internal/trace"
)

// TestPrflowProtocolPinned holds the superstep protocol to the numbers it
// produced before vertices began voting to halt (recorded at a114ead, when
// every vertex computed in every superstep): who halts when must change no
// push, relabel, wave or message.
func TestPrflowProtocolPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Input, error)

		maxFlow                                  int64
		rounds                                   int
		pushes, relabels, messages, messageBytes int64
		// roundStats is the FNV-1a hash of every RoundStat's
		// "Submitted FlowDelta ActiveVertices\n" line, in round order.
		roundStats uint64
	}{
		{
			name:    "grid-15x15",
			build:   func() (*graph.Input, error) { return graphgen.Grid(15, 15) },
			maxFlow: 2, rounds: 139, pushes: 80, relabels: 13, messages: 1796, messageBytes: 6164,
			roundStats: 0x52ddced5a98dee45,
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
			maxFlow: 28, rounds: 170, pushes: 320, relabels: 208, messages: 1600, messageBytes: 5011,
			roundStats: 0xbbc37f7170094596,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(testCluster(3), in, core.Options{Engine: EngineName, Tracer: trace.New()})
			if err != nil {
				t.Fatal(err)
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
			got := fmt.Sprintf("maxFlow %d rounds %d pushes %d relabels %d messages %d messageBytes %d roundStats %#x",
				res.MaxFlow, res.Rounds, attr("pushes"), attr("relabels"), attr("messages"), attr("message_bytes"), h.Sum64())
			want := fmt.Sprintf("maxFlow %d rounds %d pushes %d relabels %d messages %d messageBytes %d roundStats %#x",
				tc.maxFlow, tc.rounds, tc.pushes, tc.relabels, tc.messages, tc.messageBytes, tc.roundStats)
			if got != want {
				t.Errorf("protocol moved:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// scribblingProgram overwrites every message it was handed once Compute
// has returned: pregel's messages are windows of an arena the engine
// reuses, valid only during the call.
type scribblingProgram struct{ pregel.Program }

func (s scribblingProgram) Compute(ctx *pregel.Context, v *pregel.Vertex, messages [][]byte) error {
	err := s.Program.Compute(ctx, v, messages)
	for _, m := range messages {
		for i := range m {
			m[i] = 0xff
		}
	}
	return err
}

// TestMessageLifetimeDifferential runs the superstep protocol twice from
// the classical initial labelling (h(s) = n, 0 elsewhere), plainly and
// with every message scribbled over after the Compute call it was
// delivered to. Flows, final vertex states and message counts must agree
// byte for byte.
func TestMessageLifetimeDifferential(t *testing.T) {
	in, err := graphgen.Grid(15, 15)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		stats  pregel.Stats
		flows  []int64
		values [][]byte
	}
	run := func(scribble bool) outcome {
		n := int64(in.NumVertices)
		vertices := buildVertices(in, func(u graph.VertexID) int64 {
			if u == in.Source {
				return n
			}
			return 0
		})
		m := &master{next: phasePush}
		engine, err := pregel.NewEngine(pregel.Config{MaxSupersteps: 100_000, Master: m.compute}, vertices)
		if err != nil {
			t.Fatal(err)
		}
		m.engine = engine
		var p pregel.Program = &program{n: n, source: in.Source, sink: in.Sink}
		if scribble {
			p = scribblingProgram{p}
		}
		stats, err := engine.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if m.next != phaseDone {
			t.Fatalf("stopped in phase %d after %d supersteps", m.next, stats.Supersteps)
		}
		out := outcome{stats: *stats}
		out.stats.WallTime = 0
		if out.flows, err = extractFlows(in, vertices); err != nil {
			t.Fatal(err)
		}
		sort.Slice(vertices, func(i, j int) bool { return vertices[i].ID < vertices[j].ID })
		for _, v := range vertices {
			out.values = append(out.values, v.Value)
		}
		return out
	}
	plain, scribbled := run(false), run(true)
	if plain.stats.Messages == 0 {
		t.Fatalf("reference run moved nothing: %+v", plain.stats)
	}
	if !reflect.DeepEqual(plain, scribbled) {
		t.Errorf("scribbling over delivered messages changed the run:\n plain:     %+v\n scribbled: %+v", plain.stats, scribbled.stats)
	}
}

// dirtyState returns a state decoded from a three-edge vertex: what a
// reused state holds after a larger vertex than the next one.
func dirtyState(tb testing.TB) state {
	tb.Helper()
	large := &state{height: 9, excess: 4, dist: 2, nbrH: []int64{5, 6, 7}, edges: []graph.Edge{
		{To: 1, ID: 10, Flow: 3, Cap: 4, RevCap: 4, Fwd: true},
		{To: 2, ID: 11, Flow: -1, Cap: 0, RevCap: 2},
		{To: 3, ID: 12, Cap: 8, RevCap: 8, Fwd: true},
	}}
	var dirty state
	if err := decodeState(encodeState(nil, large), &dirty); err != nil {
		tb.Fatal(err)
	}
	return dirty
}

// TestDecodeStateIntoDirtyState: a state that last held a larger vertex
// decodes a smaller one with nothing left over, and corrupt records are
// errors.
func TestDecodeStateIntoDirtyState(t *testing.T) {
	small := &state{height: 1, dist: -1, nbrH: []int64{2}, edges: []graph.Edge{{To: 7, ID: 3, Cap: 1, RevCap: 1}}}
	dirty := dirtyState(t)
	for _, st := range []*state{small, {dist: -1}} {
		enc := encodeState(nil, st)
		if err := decodeState(enc, &dirty); err != nil {
			t.Fatal(err)
		}
		if got := encodeState(nil, &dirty); !bytes.Equal(got, enc) || len(dirty.edges) != len(st.edges) || len(dirty.nbrH) != len(st.edges) {
			t.Errorf("dirty decode of %+v gave %+v", st, dirty)
		}
	}
	for name, data := range map[string][]byte{
		"truncated varint":             {2, 0, 1, 1, 0x80},
		"edge count beyond the record": {2, 0, 1, 200},
		"missing Fwd byte":             {2, 0, 1, 1, 7, 3, 0, 2, 2},
		"trailing bytes":               append(encodeState(nil, small), 0),
	} {
		if err := decodeState(data, &dirty); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeState: hostile bytes never make decodeState panic, and a
// record it accepts re-encodes to one that decodes, into a dirty state,
// back to the same bytes.
func FuzzDecodeState(f *testing.F) {
	in, err := graphgen.Grid(3, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range buildVertices(in, func(graph.VertexID) int64 { return 1 }) {
		f.Add(v.Value)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st state
		if decodeState(data, &st) != nil {
			return
		}
		enc := encodeState(nil, &st)
		dirty := dirtyState(t)
		if err := decodeState(enc, &dirty); err != nil {
			t.Fatalf("re-decode of %x failed: %v\ninput: %x", enc, err, data)
		}
		if got := encodeState(nil, &dirty); !bytes.Equal(got, enc) {
			t.Fatalf("round trip moved the record:\n first: %x\nsecond: %x\ninput: %x", enc, got, data)
		}
	})
}

// TestIsolatedTerminals: with no edge at s or t the flow is 0, and the
// run still takes its three supersteps (push, update, done) because s and
// t are vertices of the engine regardless.
func TestIsolatedTerminals(t *testing.T) {
	for _, edges := range [][]graph.InputEdge{nil, {{U: 1, V: 2, Cap: 5}}} {
		in := &graph.Input{NumVertices: 4, Source: 0, Sink: 3, Edges: edges}
		res, err := core.Run(testCluster(3), in, core.Options{Engine: EngineName})
		if err != nil {
			t.Fatalf("%d edges: %v", len(edges), err)
		}
		if res.MaxFlow != 0 || res.Rounds != 3 {
			t.Errorf("%d edges: flow %d in %d supersteps, want 0 in 3", len(edges), res.MaxFlow, res.Rounds)
		}
	}
}
