package main

import (
	"os"
	"path/filepath"
	"testing"

	"ffmr/internal/graphgen"
)

func TestReadGraph(t *testing.T) {
	gen, err := graphgen.BarabasiAlbert(100, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen.Source, gen.Sink = graphgen.PickEndpoints(gen)
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphgen.WriteEdgeList(f, gen); err != nil {
		t.Fatal(err)
	}
	f.Close()

	in, err := readGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumVertices != gen.NumVertices || len(in.Edges) != len(gen.Edges) {
		t.Errorf("loaded %d/%d, want %d/%d",
			in.NumVertices, len(in.Edges), gen.NumVertices, len(gen.Edges))
	}
	if _, err := readGraph(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := readGraph(""); err == nil {
		t.Error("empty -input accepted")
	}
}

func TestNewClusterModes(t *testing.T) {
	real := newCluster(3, 2, true, 0, "")
	if real.Nodes != 3 || real.SlotsPerNode != 2 {
		t.Errorf("cluster shape: %d/%d", real.Nodes, real.SlotsPerNode)
	}
	if real.Cost.RoundOverhead == 0 {
		t.Error("realistic cluster has no round overhead")
	}
	fast := newCluster(1, 1, false, 0, "")
	if fast.Cost.RoundOverhead != 0 {
		t.Error("zero-cost cluster has round overhead")
	}
	spill := newCluster(2, 2, false, 4096, t.TempDir())
	if spill.MemoryBudget != 4096 || spill.SpillDir == "" {
		t.Errorf("spill knobs not threaded: budget=%d dir=%q", spill.MemoryBudget, spill.SpillDir)
	}
}
