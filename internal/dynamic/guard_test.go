package dynamic

import (
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/dfs/dfstest"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
)

// TestGuardedDFSApplyChain applies twenty generations of updates over a
// DFS that checksums every stored block and checks it on every read,
// delete and close. Each generation reads the previous one's final
// records and writes its own, so any Apply-side writer that reused
// a buffer it had stored, or reader that wrote into a view it was handed,
// fails the test naming the file.
func TestGuardedDFSApplyChain(t *testing.T) {
	in := fbPrime(t)[0]
	cluster := mapreduce.NewCluster(3, 4, dfstest.NewFS(t, dfs.Config{Nodes: 3, BlockSize: 16 << 10, Replication: 2}))
	cluster.Cost = mapreduce.ZeroCostModel()
	snap := solveSnap(t, cluster, in, core.Options{Variant: core.FF5})
	for gen := 1; gen <= 20; gen++ {
		batch, err := graphgen.GenerateUpdates(snap.Input, 10, graphgen.DefaultUpdateProfile(), int64(gen))
		if err != nil {
			t.Fatalf("gen %d: GenerateUpdates: %v", gen, err)
		}
		snap = applyChecked(t, cluster, snap, batch).Snapshot
	}
}
