package core

import (
	"math/rand"
	"slices"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
)

// TestFinalGraphInvariants runs every variant on a batch of random
// graphs with KeepIntermediate and validates the final residual network
// against the flow axioms — capacity, skew symmetry, conservation, and
// flow-value consistency. This is the whole-system invariant check.
func TestFinalGraphInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("invariant sweep is slow")
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4; trial++ {
		n := 20 + rng.Intn(40)
		in, err := graphgen.ErdosRenyi(n, n*3, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			graphgen.RandomCapacities(in, 7, rng.Int63())
		}
		in.Source, in.Sink = graphgen.PickEndpoints(in)
		for _, variant := range allVariants() {
			cluster := testCluster(2)
			opts := Options{Variant: variant, KeepIntermediate: true}
			res, err := Run(cluster, in, opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, variant, err)
			}
			if err := Validate(cluster.FS, in, opts, res); err != nil {
				t.Errorf("trial %d %s: %v", trial, variant, err)
			}
		}
	}
}

// TestValidateNeedsKeptIntermediate documents the KeepIntermediate
// requirement.
func TestValidateNeedsKeptIntermediate(t *testing.T) {
	in := pathGraph(3, 1)
	cluster := testCluster(2)
	opts := Options{Variant: FF5} // intermediate rounds deleted
	res, err := Run(cluster, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The final round's output is always retained, so validation still
	// works; only earlier rounds are cleaned. Validate must succeed.
	if err := Validate(cluster.FS, in, opts, res); err != nil {
		t.Fatalf("validate on final round: %v", err)
	}
}

// TestValidateDetectsCorruption corrupts a stored record and checks the
// validator notices.
func TestValidateDetectsCorruption(t *testing.T) {
	in := pathGraph(3, 2)
	cluster := testCluster(1)
	opts := Options{Variant: FF1, KeepIntermediate: true, Reducers: 1, PathPrefix: "ffmr/"}
	res, err := Run(cluster, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one half-edge's flow in the final round file: breaks skew
	// symmetry (and possibly conservation).
	prefix := roundPrefix(opts.PathPrefix, res.Rounds)
	names := cluster.FS.List(prefix)
	if len(names) == 0 {
		t.Fatal("no final round files")
	}
	verts, err := ReadVertices(cluster.FS, prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite all records with vertex 1's first edge flow bumped.
	v1 := verts[1]
	if v1 == nil || len(v1.Eu) == 0 {
		t.Fatal("vertex 1 missing")
	}
	v1.Eu[0].Flow++

	var w dfs.RecordWriter
	for u, v := range verts {
		w.Append(graph.KeyBytes(u), graph.EncodeValue(v))
	}
	for _, name := range names {
		cluster.FS.Delete(name)
	}
	if err := cluster.FS.WriteFile(prefix+"part-00000", w.Bytes()); err != nil {
		t.Fatal(err)
	}

	if err := Validate(cluster.FS, in, opts, res); err == nil {
		t.Fatal("validator accepted a corrupted graph")
	}
}

// TestValidateChecksFlowVector: Validate holds Result.Flows to the
// persisted records, so a vector that is off on one edge or misses an
// edge is rejected.
func TestValidateChecksFlowVector(t *testing.T) {
	in := pathGraph(3, 2)
	cluster := testCluster(1)
	opts := Options{Variant: FF5, KeepIntermediate: true}
	res, err := Run(cluster, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cluster.FS, in, opts, res); err != nil {
		t.Fatalf("validate the run's own vector: %v", err)
	}
	for _, tc := range []struct {
		name  string
		flows func([]int64) []int64
	}{
		{"off by one on one edge", func(f []int64) []int64 { f[1]--; return f }},
		{"too short", func(f []int64) []int64 { return f[:len(f)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *res
			bad.Flows = tc.flows(slices.Clone(res.Flows))
			if err := Validate(cluster.FS, in, opts, &bad); err == nil {
				t.Fatal("validator accepted a flow vector that disagrees with the records")
			}
		})
	}
}
