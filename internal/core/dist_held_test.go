package core

import (
	"bytes"
	"context"
	"log/slog"
	"slices"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
)

// The cells in this file pin the distributed backend's held partitions:
// a worker keeps every reduce output it wrote, and the next round's map
// and schimmy reduce over that partition read it there instead of through
// the master. None of it may show in what a run computes; with every
// worker alive, TestDistributedDifferentialAllVariants holds each round's
// files to the simulated engine's.

// heldInput is the graph the held-partition cells solve: small enough for
// one DFS block per partition, so every split is a whole file.
func heldInput(t *testing.T) (*graph.Input, int64) {
	t.Helper()
	tc := diffCase{name: "held-ws150", seed: 67}
	in, err := graphgen.WattsStrogatz(150, 6, 0.1, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, tc.seed+1)
	return in, oracleValue(t, tc, in)
}

// sameFiles fails the test unless the two file systems hold the same
// files under prefix, byte for byte.
func sameFiles(t *testing.T, want, got *dfs.FS, prefix string) {
	t.Helper()
	names := want.List(prefix)
	if gotNames := got.List(prefix); !slices.Equal(gotNames, names) {
		t.Fatalf("files under %q differ:\n simulated   %q\n distributed %q", prefix, names, gotNames)
	}
	for _, name := range names {
		w, _ := want.ReadFile(name)
		g, err := got.ReadFile(name)
		if err != nil || !bytes.Equal(w, g) {
			t.Errorf("%s differs between the backends (err %v)", name, err)
		}
	}
}

// TestDistributedHeldHolderKilled kills a worker holding partitions
// between two rounds: the next round reads them through the master, on
// the survivors and a replacement, and the run's files are still
// byte-identical to the simulated engine's.
func TestDistributedHeldHolderKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	in, want := heldInput(t)
	opts := Options{Variant: FF5, KeepIntermediate: true}
	simC := testCluster(3)
	simRes, err := Run(simC, in, opts)
	if err != nil {
		t.Fatalf("simulated run: %v", err)
	}

	h := distHarness(t, distmr.HarnessConfig{Workers: 3, Replace: true})
	distC := testCluster(3)
	distC.Distributed = h.Master
	killed := false
	opts.Log = slog.New(onRoundDone(func(round int64) {
		if round != 2 {
			return
		}
		for _, w := range h.Workers() {
			if !w.Dead() && len(w.HeldJobs()) > 0 {
				w.Kill()
				killed = true
				return
			}
		}
	}))
	distRes, err := Run(distC, in, opts)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if !killed || distRes.Rounds < 3 {
		t.Fatalf("killed a holder: %v, rounds %d; the cell needs a kill before round 3", killed, distRes.Rounds)
	}
	checkBackendParity(t, want, simRes, distRes)
	sameFiles(t, simC.FS, distC.FS, "ffmr/")
}

// onRoundDone is a slog.Handler that calls itself with the round of every
// "round done" event; the driver logs one when a round completes, before
// the next begins.
type onRoundDone func(round int64)

func (onRoundDone) Enabled(context.Context, slog.Level) bool { return true }
func (f onRoundDone) WithAttrs([]slog.Attr) slog.Handler     { return f }
func (f onRoundDone) WithGroup(string) slog.Handler          { return f }

func (f onRoundDone) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "round done" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "round" {
				f(a.Value.Int64())
			}
			return a.Key != "round"
		})
	}
	return nil
}

// TestDistributedHeldBounded runs 50 solves back to back on one harness:
// after each, the workers keep partitions of the last job and at most the
// one before it, never older ones.
func TestDistributedHeldBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	in, want := heldInput(t)
	h := distHarness(t, distmr.HarnessConfig{Workers: 3})
	for solve := 0; solve < 50; solve++ {
		c := testCluster(3)
		c.Distributed = h.Master
		res, err := Run(c, in, Options{Variant: FF5})
		if err != nil {
			t.Fatalf("solve %d: %v", solve, err)
		}
		if res.MaxFlow != want {
			t.Fatalf("solve %d: max flow %d, want %d", solve, res.MaxFlow, want)
		}
		var jobs []uint64
		for _, w := range h.Workers() {
			jobs = append(jobs, w.HeldJobs()...)
		}
		if len(jobs) == 0 {
			t.Fatalf("solve %d: no worker keeps any partition", solve)
		}
		if lo, hi := slices.Min(jobs), slices.Max(jobs); hi-lo > 1 {
			t.Fatalf("solve %d: workers keep partitions of jobs %d to %d; want only the last job's and the one before",
				solve, lo, hi)
		}
	}
}
