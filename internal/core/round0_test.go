package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/spill"
)

// round0Store is a DFS object store that also keeps a copy of every block
// written to a file under prefix, so a test can read a run's round-0 files
// after the run has deleted them. Block i of file f is the object "f#i".
type round0Store struct {
	*spill.MemRunStore
	prefix string

	mu    sync.Mutex
	files map[string][]byte
}

func (s *round0Store) Put(name string, data []byte) error {
	if file := name[:strings.LastIndexByte(name, '#')]; strings.HasPrefix(file, s.prefix) {
		s.mu.Lock()
		s.files[file] = append(s.files[file], data...)
		s.mu.Unlock()
	}
	return s.MemRunStore.Put(name, data)
}

// hash is FNV-64a over every captured file's name, length and bytes, in
// name order (the order FS.List returns).
func (s *round0Store) hash() uint64 {
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	slices.Sort(names)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprintf(h, "%s\n%d\n", name, len(s.files[name]))
		h.Write(s.files[name])
	}
	return h.Sum64()
}

// round0Cluster is testCluster(3) over a round0Store capturing prefix.
func round0Cluster(prefix string) (*mapreduce.Cluster, *round0Store) {
	store := &round0Store{MemRunStore: spill.NewMemRunStore(), prefix: prefix, files: map[string][]byte{}}
	fs := dfs.NewWithStore(dfs.Config{Nodes: 3, BlockSize: 16 << 10, Replication: 2}, store)
	c := mapreduce.NewCluster(3, 4, fs)
	c.Cost = mapreduce.ZeroCostModel()
	return c, store
}

// round0Graph has directed edges in both orientations, parallel edges and
// an isolated vertex (4), which gets no record.
func round0Graph() *graph.Input {
	return &graph.Input{NumVertices: 7, Source: 0, Sink: 6, Edges: []graph.InputEdge{
		{U: 0, V: 1, Cap: 3},
		{U: 0, V: 1, Cap: 2},
		{U: 1, V: 2, Cap: 4, Directed: true},
		{U: 2, V: 1, Cap: 1, Directed: true},
		{U: 3, V: 1, Cap: 2},
		{U: 3, V: 6, Cap: 5},
		{U: 2, V: 6, Cap: 3, Directed: true},
		{U: 5, V: 3, Cap: 1},
		{U: 5, V: 3, Cap: 7, Directed: true},
	}}
}

// TestRoundZeroPinned holds the vertex records every run starts from to the
// bytes the paper's round-0 conversion job wrote: the hashes were recorded
// from that MapReduce job, and the host writers that replaced it must
// reproduce every one. FF1-FF4 store the same records; FF5 adds zeroed
// sent flags, and bi-directional search seeds the sink's excess path.
func TestRoundZeroPinned(t *testing.T) {
	inputs := []struct {
		name string
		in   *graph.Input
	}{
		{"crawl", pinnedCrawl(t)},
		{"small", round0Graph()},
	}
	type pin struct{ bidi, oneWay uint64 }
	pins := map[string]map[Variant]pin{
		"crawl": {
			FF1: {0xe559cc4946d49311, 0x7782f16a31787f9a},
			FF2: {0xe559cc4946d49311, 0x7782f16a31787f9a},
			FF3: {0xe559cc4946d49311, 0x7782f16a31787f9a},
			FF4: {0xe559cc4946d49311, 0x7782f16a31787f9a},
			FF5: {0x154cee91dba36b84, 0xe7a4e4f7e88c587f},
		},
		"small": {
			FF1: {0xcd5cf34d45d1c737, 0xda0cc29c784bd21a},
			FF2: {0xcd5cf34d45d1c737, 0xda0cc29c784bd21a},
			FF3: {0xcd5cf34d45d1c737, 0xda0cc29c784bd21a},
			FF4: {0xcd5cf34d45d1c737, 0xda0cc29c784bd21a},
			FF5: {0x7e962b039f6cec64, 0x139848d164cf6583},
		},
	}
	bfsPins := map[string]uint64{"crawl": 0x8f23f7e28a3d198a, "small": 0x7139dbbfd4437178}
	for _, tc := range inputs {
		want := dinicValue(t, tc.in)
		for _, variant := range allVariants() {
			for _, oneWay := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/bidirectional=%t", tc.name, variant, !oneWay)
				t.Run(name, func(t *testing.T) {
					cluster, store := round0Cluster("ffmr/round-00000/")
					res, err := Run(cluster, tc.in, Options{Variant: variant, DisableBidirectional: oneWay})
					if err != nil {
						t.Fatal(err)
					}
					if res.MaxFlow != want {
						t.Fatalf("max flow %d, Dinic says %d", res.MaxFlow, want)
					}
					exp := pins[tc.name][variant].bidi
					if oneWay {
						exp = pins[tc.name][variant].oneWay
					}
					if got := store.hash(); got != exp {
						t.Errorf("round-0 files hash %#x, want %#x", got, exp)
					}
				})
			}
		}
		t.Run(tc.name+"/MR-BFS", func(t *testing.T) {
			cluster, store := round0Cluster("bfs/round-00000/")
			if _, err := RunBFS(cluster, tc.in, 0, ""); err != nil {
				t.Fatal(err)
			}
			if got := store.hash(); got != bfsPins[tc.name] {
				t.Errorf("round-0 files hash %#x, want %#x", got, bfsPins[tc.name])
			}
		})
	}
}
