package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
)

// TestWriteEngineStateBytesPinned holds the records WriteEngineState
// persists to the bytes it wrote when it built its adjacency in a map:
// every part file and the pending-deltas file, for FF1 and FF5 (which
// adds sent-flag arrays), on a lattice, a power-law graph with random
// capacities and flows of both signs, and a tiny input with a directed
// antiparallel pair and terminals no edge touches.
func TestWriteEngineStateBytesPinned(t *testing.T) {
	grid, err := graphgen.Grid(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := graphgen.BarabasiAlbert(300, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ba.Source, ba.Sink = 0, 299
	graphgen.RandomCapacities(ba, 20, 7)
	tiny := &graph.Input{NumVertices: 5, Source: 0, Sink: 4, Edges: []graph.InputEdge{
		{U: 1, V: 2, Cap: 3, Directed: true},
		{U: 2, V: 1, Cap: 5, Directed: true},
		{U: 3, V: 2, Cap: 4},
	}}
	cases := []struct {
		name string
		in   *graph.Input
		want map[Variant]uint64
	}{
		{"grid-20x20", grid, map[Variant]uint64{FF1: 0x6281128c97447b86, FF5: 0x4f9362de2bf5d6ff}},
		{"ba-300", ba, map[Variant]uint64{FF1: 0x18542bb25074fa11, FF5: 0xb3050e63a951635c}},
		{"tiny", tiny, map[Variant]uint64{FF1: 0x43cd05389bfb3778, FF5: 0x91dd8f89124fea5b}},
	}
	for _, tc := range cases {
		// Any assignment within the capacities will do: the writer
		// persists flows, it does not check them.
		rng := rand.New(rand.NewSource(int64(len(tc.in.Edges))))
		flows := make([]int64, len(tc.in.Edges))
		for i, e := range tc.in.Edges {
			rev := e.Cap
			if e.Directed {
				rev = 0
			}
			flows[i] = rng.Int63n(e.Cap+rev+1) - rev
		}
		for _, v := range []Variant{FF1, FF5} {
			fs := dfs.New(dfs.Config{Nodes: 3, BlockSize: 16 << 10, Replication: 2})
			opts := Options{Variant: v, PathPrefix: "pin/"}.WithDefaults(5)
			const rounds = 7
			if err := WriteEngineState(fs, tc.in, opts, rounds, flows); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			names := []string{deltaName(opts.PathPrefix, rounds+1)}
			for p := 0; p < opts.Reducers; p++ {
				names = append(names, fmt.Sprintf("%spart-%05d", roundPrefix(opts.PathPrefix, rounds), p))
			}
			for _, name := range names {
				data, err := fs.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %d\n", name, len(data))
				h.Write(data)
			}
			if got := h.Sum64(); got != tc.want[v] {
				t.Errorf("%s FF%d: part files hash to %#x, want %#x", tc.name, v, got, tc.want[v])
			}
		}
	}
}

// TestWriteEngineStateAllocs: round 0 sizes each partition before it
// writes it and builds each record in one max-degree scratch from a 4-byte
// arc index, so what WriteEngineState allocates is its output plus the
// index and the scratch, within 10 %. Growing the partitions by append
// instead costs up to twice the output; copying every half-edge into a
// 48-byte graph.Edge first costs some five times the index.
func TestWriteEngineStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	in, err := graphgen.BarabasiAlbert(20000, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = 0, 19999
	graphgen.RandomCapacities(in, 20, 11)
	allocated := func(f func()) int64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	// An int32 start per vertex plus one and an int32 per arc.
	index := int64(4*(in.NumVertices+1) + 8*len(in.Edges))
	degree := make([]int64, in.NumVertices)
	for _, e := range in.Edges {
		degree[e.U]++
		degree[e.V]++
	}
	maxDegree := slices.Max(degree)
	// The record's halves, their sort keys and FF5's shared sent flags.
	scratch := maxDegree * (int64(unsafe.Sizeof(graph.Edge{})) + 16)
	for _, v := range []Variant{FF1, FF5} {
		opts := Options{Variant: v}.WithDefaults(16)
		fs := dfs.New(dfs.Config{Nodes: 4, BlockSize: 1 << 20, Replication: 2})
		total := allocated(func() {
			if err := WriteEngineState(fs, in, opts, 0, nil); err != nil {
				t.Fatal(err)
			}
		})
		out := fs.TotalSize(opts.PathPrefix)
		t.Logf("%s: %d bytes allocated for %d of output, %d of arc index and %d of scratch",
			v, total, out, index, scratch)
		if limit := (out + index + scratch) * 11 / 10; total > limit {
			t.Errorf("%s: WriteEngineState allocated %d bytes for %d bytes of output, %d of arc index and %d of scratch; want at most %d",
				v, total, out, index, scratch, limit)
		}
	}
}
