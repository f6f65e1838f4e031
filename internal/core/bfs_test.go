package core

import (
	"bytes"
	"slices"
	"testing"

	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/spill"
)

// wheelRoundTask runs the MR-BFS on a wheel of n vertices (a hub, the
// source, joined to every vertex of a ring) and returns the files of its
// round 1 as one map split: the input of round 2, in which every ring
// vertex is on the frontier and proposes to the hub and both ring
// neighbours, so every reduce group holds a master record and fragments.
func wheelRoundTask(t *testing.T, n int) []byte {
	t.Helper()
	in := &graph.Input{NumVertices: n, Source: 0, Sink: 1}
	for v := 1; v < n; v++ {
		next := v%(n-1) + 1
		in.Edges = append(in.Edges,
			graph.InputEdge{U: 0, V: graph.VertexID(v), Cap: 1},
			graph.InputEdge{U: graph.VertexID(v), V: graph.VertexID(next), Cap: 1})
	}
	cluster := testCluster(3)
	res, err := RunBFS(cluster, in, 2, "bfs/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || res.Visited != int64(n) {
		t.Fatalf("wheel BFS took %d rounds and visited %d, want 2 rounds and all %d", res.Rounds, res.Visited, n)
	}
	return oneSplit(t, cluster.FS, roundPrefix("bfs/", 1))
}

// TestBFSRecordPathSteadyStateAllocs runs bfsMapper in the real map task
// body and bfsReducer in the real reduce task body over a real BFS round's
// files. A task with four times the records costs nothing more per record.
func TestBFSRecordPathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled objects are not meaningful under -race")
	}
	task := func(n int) (mapAllocs, reduceAllocs float64) {
		split := wheelRoundTask(t, n)
		env := &mapreduce.TaskEnv{
			Job: "bfs-allocs", Round: 2,
			NewMapper:  func() mapreduce.Mapper { return &bfsMapper{round: 2} },
			NewReducer: func() mapreduce.Reducer { return &bfsReducer{} },
			Store:      spill.NewMemRunStore(),
		}
		mapTask := &mapreduce.MapTask{Split: split, Partitions: 1, Prefix: "m/"}
		counters := mapreduce.NewCounters()
		var maps *mapreduce.MapResult
		mapAllocs = testing.AllocsPerRun(5, func() {
			var err error
			if maps, err = mapreduce.ExecMap(env, mapTask, counters, nil); err != nil {
				t.Fatal(err)
			}
		})
		// Every ring vertex passes itself on and proposes to three
		// neighbours; the hub passes itself on.
		if want := int64(4*(n-1) + 1); maps.OutRecs != want {
			t.Fatalf("map task of %d records emitted %d, want %d", n, maps.OutRecs, want)
		}
		reduce := &mapreduce.ReduceTask{Segments: maps.Out.Parts[0], FanIn: 16, TmpPrefix: "r/"}
		var out *mapreduce.ReduceResult
		reduceAllocs = testing.AllocsPerRun(5, func() {
			var err error
			if out, err = mapreduce.ExecReduce(env, reduce, counters, nil); err != nil {
				t.Fatal(err)
			}
		})
		if out.OutRecords != int64(n) {
			t.Fatalf("reduce task wrote %d records, want %d", out.OutRecords, n)
		}
		return mapAllocs, reduceAllocs
	}

	const small, large = 200, 800
	mapSmall, reduceSmall := task(small)
	mapLarge, reduceLarge := task(large)
	for _, side := range []struct {
		name         string
		small, large float64
	}{{"bfsMapper.Map", mapSmall, mapLarge}, {"bfsReducer.Reduce", reduceSmall, reduceLarge}} {
		perRecord := (side.large - side.small) / (large - small)
		t.Logf("%s: %.0f allocs for %d records, %.0f for %d: %.3f per record", side.name, side.small, small, side.large, large, perRecord)
		// What is left is the task's own buffers (shuffle arena, merge
		// heap, output) doubling a few more times for four times the records.
		if perRecord >= 0.05 {
			t.Errorf("%s: %.3f allocs per record once warm, want under 0.05 (nothing per record)", side.name, perRecord)
		}
	}
}

// FuzzBFSCodec: the task-owned bfsValue of a mapper or reducer last held
// some other record. A decode into it must agree with a decode into a
// fresh value, whatever it held, and the encoding must round-trip.
func FuzzBFSCodec(f *testing.F) {
	long := encodeBFS(nil, &bfsValue{master: true, dist: 7, neighbors: []graph.VertexID{9, 8, 7, 6, 5, 4, 3, 2, 1}})
	f.Add(long)
	f.Add(encodeBFS(nil, &bfsValue{master: true, dist: -1, neighbors: []graph.VertexID{3}}))
	f.Add(encodeBFS(nil, &bfsValue{master: true}))
	f.Add(encodeBFS(nil, &bfsValue{dist: 4}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh, dirty bfsValue
		if err := decodeBFS(long, &dirty); err != nil {
			t.Fatal(err)
		}
		errFresh, errDirty := decodeBFS(data, &fresh), decodeBFS(data, &dirty)
		if (errFresh == nil) != (errDirty == nil) {
			t.Fatalf("fresh decode: %v, dirty decode: %v\ninput: %x", errFresh, errDirty, data)
		}
		if errFresh != nil {
			return
		}
		if fresh.master != dirty.master || fresh.dist != dirty.dist || !slices.Equal(fresh.neighbors, dirty.neighbors) {
			t.Fatalf("decode into a dirty value disagrees with a fresh one:\n fresh: %+v\n dirty: %+v\ninput: %x", fresh, dirty, data)
		}
		enc := encodeBFS(nil, &dirty)
		var again bfsValue
		if err := decodeBFS(enc, &again); err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v\ninput: %x", err, data)
		}
		if enc2 := encodeBFS(nil, &again); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable:\n first: %x\nsecond: %x\ninput: %x", enc, enc2, data)
		}
	})
}
