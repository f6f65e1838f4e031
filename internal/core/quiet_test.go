package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/spill"
)

// pinnedCrawl is the input of TestStoredStatePinned: the larger member of a
// two-graph crawl chain with super source and sink taps and random
// capacities.
func pinnedCrawl(t *testing.T) *graph.Input {
	t.Helper()
	chain, err := graphgen.CrawlChain([]graphgen.FBSpec{
		{Name: "pin-a", Vertices: 300},
		{Name: "pin-b", Vertices: 600},
	}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(chain[1], 4, 4, 103)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.RandomCapacities(in, 6, 3)
	return in
}

// TestStoredStatePinned holds every variant's stored state to what the
// record path produced before the schimmy rounds learned to skip quiet
// vertices: a round's work may shrink, but no byte it writes and no
// counter it reports may move. files hashes (FNV-1a) the name and bytes of
// every DFS file the run kept: round partitions and AugmentedEdges tables
// (the driver writes no edge-list input). stats hashes the exact fields
// of every max-flow round's RoundStat, in round order. Round 0 runs no
// job: its stat is pinned on its own, all zero but the bytes the driver
// wrote. The test pins the record path, not the stopping rule, so it runs
// the quiescent rule the hashes were recorded under;
// TestStopAtMaximumIsPrefix carries them over to the default rule, whose
// run is a prefix of this one.
func TestStoredStatePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five variants; skipped with -short")
	}
	in := pinnedCrawl(t)
	want := dinicValue(t, in)
	pins := map[Variant]struct {
		rounds       int
		round0Bytes  int64
		files, stats uint64
	}{
		FF1: {5, 34000, 0xbd9d030a53943453, 0x2ec0644a4b59e5c1},
		FF2: {4, 34000, 0x802af125ed27484a, 0x37e85848e282d73d},
		FF3: {4, 34000, 0x802af125ed27484a, 0x7bf0acfde33f59a5},
		FF4: {4, 34000, 0x802af125ed27484a, 0x7bf0acfde33f59a5},
		FF5: {4, 41225, 0x999e9a1d23c1ac4e, 0x8f524a88270bece3},
	}
	for _, variant := range allVariants() {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			t.Parallel()
			cluster := testCluster(3)
			opts := Options{Variant: variant, KeepIntermediate: true, Termination: TerminationQuiescent}
			res, err := Run(cluster, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxFlow != want {
				t.Fatalf("max flow %d, Dinic says %d", res.MaxFlow, want)
			}
			opts = opts.WithDefaults(cluster.Nodes * cluster.SlotsPerNode)
			files := fnv.New64a()
			for _, name := range cluster.FS.List(opts.PathPrefix) {
				data, err := cluster.FS.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(files, "%s\n%d\n", name, len(data))
				files.Write(data)
			}
			stats := fnv.New64a()
			for _, st := range res.RoundStats[1:] {
				fmt.Fprintf(stats, "%d %d %d %d %d %d %d %d %d %d %d %d %d\n",
					st.Round, st.APaths, st.Submitted, st.FlowDelta, st.SourceMove, st.SinkMove,
					st.ActiveVertices, st.MapOutRecords, st.MapOutBytes, st.ShuffleBytes,
					st.MaxRecordBytes, st.MaxGroupBytes, st.OutputBytes)
			}
			const format = "rounds %d files %#x stats %#x"
			pin := pins[variant]
			got := fmt.Sprintf(format, res.Rounds, files.Sum64(), stats.Sum64())
			if exp := fmt.Sprintf(format, pin.rounds, pin.files, pin.stats); got != exp {
				t.Errorf("stored state moved:\n got %s\nwant %s", got, exp)
			}
			// The zero cost model charges the DFS write nothing.
			st0 := res.RoundStats[0]
			st0.WallTime = 0
			if exp := (RoundStat{OutputBytes: pin.round0Bytes}); st0 != exp || res.InputGraphBytes != pin.round0Bytes {
				t.Errorf("round 0 stat %+v and %d graph bytes, want %+v and %d",
					st0, res.InputGraphBytes, exp, pin.round0Bytes)
			}
		})
	}
}

// quietRound runs one FF5 round's map task and schimmy reduce task over
// base, one partition of vertex records, with deltas as the round's
// AugmentedEdges table. It returns how many records the mapper emitted,
// the reduce output and the two tasks' errors.
func quietRound(t *testing.T, base []byte, deltas map[graph.EdgeID]int64) (emitted int64, out []byte, mapErr, reduceErr error) {
	t.Helper()
	cfg := &runConfig{opts: Options{Variant: FF5}.WithDefaults(1), feat: FF5.features(), source: 0, sink: 1, deltasFile: "deltas"}
	env := &mapreduce.TaskEnv{
		Job: "quiet", Round: 2,
		NewMapper:  func() mapreduce.Mapper { return newFFMapper(cfg) },
		NewReducer: func() mapreduce.Reducer { return newFFReducer(cfg) },
		Side:       map[string][]byte{cfg.deltasFile: EncodeDeltas(deltas)},
		Store:      spill.NewMemRunStore(),
	}
	maps, mapErr := mapreduce.ExecMap(env, &mapreduce.MapTask{Split: base, Partitions: 1, Prefix: "m/"},
		mapreduce.NewCounters(), nil)
	if mapErr != nil {
		return 0, nil, mapErr, nil
	}
	res, reduceErr := mapreduce.ExecReduce(env, &mapreduce.ReduceTask{
		Segments: maps.Out.Parts[0], FanIn: 16, TmpPrefix: "r/", Base: base,
	}, mapreduce.NewCounters(), nil)
	if reduceErr != nil {
		return maps.OutRecs, nil, nil, reduceErr
	}
	return maps.OutRecs, res.Output, nil, nil
}

// onlyRecord returns the value of the one record of a SequenceFile.
func onlyRecord(t *testing.T, data []byte) []byte {
	t.Helper()
	r := dfs.NewRecordReader(data)
	_, value, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("no record: %v", err)
	}
	if _, _, more, _ := r.Next(); more {
		t.Fatal("more than one record")
	}
	return value
}

// TestQuietMasterContract pins the two quiet paths of a schimmy round to
// what the full record path would do. A master that holds no excess path
// is skipped by the mapper before it is decoded, and the reducer, which
// decodes the same bytes as its base, still rejects a corrupt one. The
// reducer passes a master through verbatim only when the full path would
// reproduce it: a set sent flag or an edge in the deltas means re-encoding.
// A record without edges is not a master and still fails the mapper.
func TestQuietMasterContract(t *testing.T) {
	const u = 10
	quiet := graph.VertexValue{
		Eu: []graph.Edge{
			{To: 11, ID: 5, Flow: 1, Cap: 3, RevCap: 3, Fwd: true},
			{To: 12, ID: 6, Cap: 2, RevCap: 2},
		},
		SentS: []uint64{0, 0},
		SentT: []uint64{0, 0},
	}
	partition := func(value []byte) []byte {
		var w dfs.RecordWriter
		w.Append(graph.KeyBytes(u), value)
		return w.Bytes()
	}
	// fullPath is what the reducer's record path makes of v.
	fullPath := func(v graph.VertexValue, deltas map[graph.EdgeID]int64) []byte {
		v = graph.VertexValue{Eu: slices.Clone(v.Eu), SentS: slices.Clone(v.SentS), SentT: slices.Clone(v.SentT)}
		updateVertex(&v, newDeltaSet(deltas), nil)
		return graph.EncodeValue(&v)
	}

	t.Run("pass-through", func(t *testing.T) {
		for _, deltas := range []map[graph.EdgeID]int64{nil, {99: 1}} {
			in := graph.EncodeValue(&quiet)
			emitted, out, mapErr, reduceErr := quietRound(t, partition(in), deltas)
			if mapErr != nil || reduceErr != nil || emitted != 0 {
				t.Fatalf("deltas %v: %d emitted, errors %v, %v; want a silent mapper and a reducer that succeeds",
					deltas, emitted, mapErr, reduceErr)
			}
			if got := onlyRecord(t, out); !bytes.Equal(got, in) || !bytes.Equal(got, fullPath(quiet, deltas)) {
				t.Errorf("deltas %v: reduce output % x, want the base record % x", deltas, got, in)
			}
		}
	})

	t.Run("corrupt tail", func(t *testing.T) {
		in := append(graph.EncodeValue(&quiet), 0x01)
		emitted, _, mapErr, reduceErr := quietRound(t, partition(in), nil)
		if mapErr != nil || emitted != 0 {
			t.Fatalf("mapper: %d emitted, %v; want the record skipped", emitted, mapErr)
		}
		if reduceErr == nil || !strings.Contains(reduceErr.Error(), "trailing bytes") {
			t.Fatalf("reducer over the same base: %v, want the decode error", reduceErr)
		}
	})

	t.Run("re-encoded", func(t *testing.T) {
		sent := quiet
		sent.SentS = []uint64{0, 0xfeed}
		for _, tc := range []struct {
			name   string
			v      graph.VertexValue
			deltas map[graph.EdgeID]int64
		}{
			{"a set sent flag", sent, nil},
			{"an edge in the deltas", quiet, map[graph.EdgeID]int64{6: -1, 99: 1}},
		} {
			in := graph.EncodeValue(&tc.v)
			emitted, out, mapErr, reduceErr := quietRound(t, partition(in), tc.deltas)
			if mapErr != nil || reduceErr != nil || emitted != 0 {
				t.Fatalf("%s: %d emitted, errors %v, %v", tc.name, emitted, mapErr, reduceErr)
			}
			got, want := onlyRecord(t, out), fullPath(tc.v, tc.deltas)
			if bytes.Equal(want, in) {
				t.Fatalf("%s: the full path leaves the record as it is; the case tests nothing", tc.name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: reduce output % x, want the re-encoded % x (base % x)", tc.name, got, want, in)
			}
		}
	})

	t.Run("no edges", func(t *testing.T) {
		_, _, mapErr, _ := quietRound(t, partition(graph.EncodeValue(&graph.VertexValue{})), nil)
		if mapErr == nil || !strings.Contains(mapErr.Error(), "non-master record") {
			t.Fatalf("mapper over a record without edges: %v, want the non-master error", mapErr)
		}
	})
}
