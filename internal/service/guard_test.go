package service

import (
	"testing"
	"time"

	"ffmr/internal/dfs"
	"ffmr/internal/dfs/dfstest"
	"ffmr/internal/mapreduce"
)

// TestGuardedDFSSolveThenQueries serves a solve and the queries that
// follow it from a DFS that checksums every stored block and checks it on
// every read, delete and close: the query views read the state the solve
// left, so a view that wrote into the blocks it was handed fails the test
// naming the file.
func TestGuardedDFSSolveThenQueries(t *testing.T) {
	cluster := mapreduce.NewCluster(3, 4, dfstest.NewFS(t, dfs.Config{Nodes: 3, BlockSize: 16 << 10, Replication: 2}))
	cluster.Cost = mapreduce.ZeroCostModel()
	svc := startService(t, cluster, Quotas{MaxConcurrent: 1})
	defer svc.Close()
	c := NewClient(svc.Addr())
	defer c.Close()

	in := smallWorld(t, 200, 3, 11)
	want := oracle(t, in)
	ji, err := c.Submit(&SubmitRequest{Tenant: "acme", Handle: "g", Engine: "ffmr", Graph: graphSpec(in)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(ji.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != want {
		t.Fatalf("flow %d, oracle says %d", res.Flow, want)
	}
	if fr, err := c.Flow("g"); err != nil || fr.Flow != want {
		t.Fatalf("flow query: %+v, %v", fr, err)
	}
	if cut, err := c.Cut("g"); err != nil || cut.CutCapacity != want {
		t.Fatalf("cut query: %+v, %v", cut, err)
	}
	if _, err := c.CutSide("g", int64(in.Sink)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Residual("g", 0); err != nil {
		t.Fatal(err)
	}
}
