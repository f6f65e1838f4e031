package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// This file pins the distributed shuffle and the frame-ownership rule
// from the outside: the DFS files a distributed run leaves behind, how
// many fetches it makes and what they leave in worker stores, and that a
// run under heavy worker crashes finishes.

// TestDistributedPartFilesMatchUnderPoisonedPool is the ownership guard's
// differential. With every pooled frame buffer poisoned as it is returned
// (TestMain), FF1-FF5 on the distributed backend must leave every DFS
// file — part files, AugmentedEdges tables and input splits —
// byte-identical to the simulated engine's: a decoder that kept a pooled
// slice, or an owned frame written after it was handed over, would show
// in some file.
func TestDistributedPartFilesMatchUnderPoisonedPool(t *testing.T) {
	in, err := graphgen.WattsStrogatz(160, 6, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, 42)

	h := distHarness(t, distmr.HarnessConfig{Workers: 3})
	for _, variant := range allVariants() {
		t.Run(variant.String(), func(t *testing.T) {
			simC := testCluster(3)
			if _, err := Run(simC, in, Options{Variant: variant}); err != nil {
				t.Fatalf("simulated run: %v", err)
			}
			distC := testCluster(3)
			distC.Distributed = h.Master
			if _, err := Run(distC, in, Options{Variant: variant}); err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			names := simC.FS.List("")
			if got := distC.FS.List(""); len(names) == 0 || !reflect.DeepEqual(got, names) {
				t.Fatalf("DFS files: simulated %v, distributed %v", names, got)
			}
			for _, name := range names {
				want, err1 := simC.FS.ReadFile(name)
				got, err2 := distC.FS.ReadFile(name)
				if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
					t.Errorf("%s differs between backends (%v, %v)", name, err1, err2)
				}
			}
		})
	}
}

// TestShuffleFetchCountAndFootprint holds the shuffle of a fault-free
// 3-worker FF5 run to its design: without a memory budget at most one
// fetch per source worker and reduce task, no fetched object left in any
// worker store when the run returns (an attempt removes its own; CleanJob
// would catch any an abandoned attempt left), and, on disk stores under
// a budget, no reply above max(budget, largest segment) — a reply of
// several segments stays within the budget, and only a single segment may
// exceed it.
func TestShuffleFetchCountAndFootprint(t *testing.T) {
	const workers = 3
	in, err := graphgen.WattsStrogatz(160, 6, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, 42)
	want := dinicValue(t, in)

	// run solves FF5 on a fresh harness whose stores newStore builds, and
	// returns the run's trace.
	run := func(t *testing.T, budget int64, newStore func() spill.RunStore) []trace.ParsedEvent {
		tr := trace.New()
		h := distHarness(t, distmr.HarnessConfig{Workers: workers, Tracer: tr, NewStore: newStore})
		c := testCluster(3)
		c.Distributed = h.Master
		c.MemoryBudget = budget
		res, err := Run(c, in, Options{Variant: FF5, Tracer: tr})
		if err != nil {
			t.Fatalf("distributed run: %v", err)
		}
		if res.MaxFlow != want {
			t.Fatalf("max flow %d, Dinic says %d", res.MaxFlow, want)
		}
		counters := tr.Registry().CounterSnapshot()
		if n := counters[distmr.CounterReassigns]; n != 0 {
			t.Fatalf("a fault-free run made %d reassignments", n)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		events, err := trace.ParseChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		fetches := tr.Registry().HistogramSnapshot()[distmr.HistShuffleFetchNS].Count
		var reduces int64
		for _, e := range events {
			if n, ok := e.Int("reduce_tasks"); ok && e.Cat == trace.CatJob {
				reduces += n
			}
		}
		if fetches == 0 || (budget == 0 && fetches > (workers-1)*reduces) {
			t.Errorf("%d shuffle fetches for %d reduce tasks on %d workers, want 1..%d",
				fetches, reduces, workers, (workers-1)*reduces)
		}
		return events
	}

	t.Run("memory", func(t *testing.T) {
		var mu sync.Mutex
		var stores []*spill.MemRunStore
		run(t, 0, func() spill.RunStore {
			s := spill.NewMemRunStore()
			mu.Lock()
			stores = append(stores, s)
			mu.Unlock()
			return s
		})
		for i, s := range stores {
			for _, name := range s.Names() {
				if strings.Contains(name, "/fetch-") {
					t.Errorf("worker store %d still holds fetched object %s", i, name)
				}
			}
		}
	})

	t.Run("disk-budget", func(t *testing.T) {
		const budget = 4 << 10
		events := run(t, budget, func() spill.RunStore {
			s, err := spill.NewDiskRunStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		var several int
		for _, e := range events {
			segs, _ := e.Int("segments")
			size, _ := e.Int("bytes")
			if e.Cat != trace.CatShuffle || segs < 2 {
				continue
			}
			several++
			if size > budget {
				t.Errorf("a %d-byte reply of %d segments exceeds the %d-byte budget", size, segs, budget)
			}
		}
		if several == 0 {
			t.Error("no reply carried several segments; the budget split exercised nothing")
		}
	})
}

// TestDistributedCrashRunFinishes runs the configuration of
// `gengraph -gen ws -n 400 -k 6 -beta 0.2` solved with `ffmr -variant 5
// -distributed -worker-crash 0.1` to a Dinic-checked flow. Each crash kills every
// lease on its worker; those leases do not count against the task that
// held them, so no task runs out of assignments, and a fetch from a
// crashed worker is a lost map output, not a failed reduce.
func TestDistributedCrashRunFinishes(t *testing.T) {
	if testing.Short() {
		t.Skip("crash runs are slow; skipped with -short")
	}
	in, err := graphgen.WattsStrogatz(400, 6, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	want := dinicValue(t, in)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			h := distHarness(t, distmr.HarnessConfig{Workers: 3, Replace: true})
			c := mapreduce.NewCluster(4, 4, dfs.New(dfs.Config{Nodes: 4, BlockSize: 4 << 20, Replication: 2}))
			c.Cost = mapreduce.ZeroCostModel()
			c.Distributed = h.Master
			c.Fault.WorkerCrashRate = 0.1
			c.Fault.Seed = seed
			res, err := Run(c, in, Options{Variant: FF5})
			if err != nil {
				t.Fatalf("crash run: %v", err)
			}
			if res.MaxFlow != want {
				t.Errorf("max flow %d, Dinic says %d", res.MaxFlow, want)
			}
		})
	}
}
