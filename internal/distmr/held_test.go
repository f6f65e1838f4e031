package distmr

import (
	"bytes"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/mapreduce"
)

// heldChain runs two chained sum jobs on c: in/ -> mid/, then a schimmy
// job mid/ -> out/ whose map splits and reduce bases are mid/'s
// partitions. Between the jobs, between(c.FS) runs. It returns the second
// job's result and the DFS bytes read by the second job.
func heldChain(t *testing.T, c *mapreduce.Cluster, between func(t *testing.T, fs *dfs.FS)) (*mapreduce.Result, int64) {
	t.Helper()
	first := sumJob(c.FS)
	first.OutputPrefix = "mid/"
	if _, err := c.Run(first); err != nil {
		t.Fatalf("first job: %v", err)
	}
	between(t, c.FS)
	second := sumJob(c.FS)
	second.Name = "sum-again"
	second.Inputs = c.FS.List("mid/")
	second.Schimmy, second.SchimmyBase = true, "mid/"
	read := c.FS.Stats().BytesRead
	res, err := c.Run(second)
	if err != nil {
		t.Fatalf("second job: %v", err)
	}
	return res, c.FS.Stats().BytesRead - read
}

// TestDistributedHeldPartitions: the second job of a chain reads its
// inputs from the workers that wrote them, and reads from the master
// exactly those the workers cannot serve — a partition rewritten after
// its holder kept it (the stale reference), or every partition once the
// workers dropped what they kept. Either way its output and its DFS read
// charge equal the simulated engine's.
func TestDistributedHeldPartitions(t *testing.T) {
	const files, perFile = 3, 200
	// rewrite replaces mid/part-00001 with the same records, doubled: the
	// file's bytes change, so its holder's copy is stale.
	rewrite := func(t *testing.T, fs *dfs.FS) {
		data, err := fs.ReadFile("mid/part-00001")
		if err != nil {
			t.Fatal(err)
		}
		var w dfs.RecordWriter
		r := dfs.NewRecordReader(data)
		for {
			key, value, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			w.Append(key, append(bytes.Clone(value), '0'))
		}
		if err := fs.WriteFile("mid/part-00001", w.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	h, err := StartHarness(HarnessConfig{Workers: 3})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()
	for _, tc := range []struct {
		name          string
		between       func(t *testing.T, fs *dfs.FS)
		local, master int64
	}{
		{"kept", func(*testing.T, *dfs.FS) {}, 8, 0},
		{"stale", rewrite, 6, 2},
		{"dropped", func(*testing.T, *dfs.FS) {
			for _, w := range h.Workers() {
				w.cfg.Store.RemovePrefix(heldRoot)
			}
		}, 0, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simC := sumCluster(t, files, perFile)
			simBetween := func(*testing.T, *dfs.FS) {}
			if tc.name == "stale" {
				simBetween = rewrite
			}
			_, simRead := heldChain(t, simC, simBetween)
			distC := sumCluster(t, files, perFile)
			distC.Distributed = h.Master
			res, distRead := heldChain(t, distC, tc.between)

			for _, name := range simC.FS.List("out/") {
				want, _ := simC.FS.ReadFile(name)
				got, err := distC.FS.ReadFile(name)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s differs from the simulated engine's (err %v)", name, err)
				}
			}
			if distRead != simRead {
				t.Errorf("the second job read %d DFS bytes, the simulated engine %d", distRead, simRead)
			}
			local, master := res.Counters[CounterInputReadsLocal], res.Counters[CounterInputReadsMaster]
			if local != tc.local || master != tc.master {
				t.Errorf("input reads: %d local, %d through the master; want %d and %d",
					local, master, tc.local, tc.master)
			}
		})
	}
}
