package core

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ffmr/internal/distmr"
	"ffmr/internal/graphgen"
	"ffmr/internal/leakcheck"
	"ffmr/internal/mapreduce"
	"ffmr/internal/trace"
)

// This file is the distributed-backend acceptance harness: every FFMR
// variant (and MR-BFS) runs once on the simulated engine and once on the
// distmr backend — real TCP workers, network shuffle, task leases — and
// the two runs must agree on the max-flow value and on every per-round
// Table I counter.

// distHarness boots an in-process master/worker cluster and closes it
// when the test finishes.
func distHarness(t *testing.T, cfg distmr.HarnessConfig) *distmr.Harness {
	t.Helper()
	h, err := distmr.StartHarness(cfg)
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

// checkBackendParity fails the test unless the simulated and distributed
// runs agree on flow, round count and all comparable per-round counters.
func checkBackendParity(t *testing.T, want int64, simRes, distRes *Result) {
	t.Helper()
	if simRes.MaxFlow != want || distRes.MaxFlow != want {
		t.Errorf("max flow: simulated %d, distributed %d, oracles say %d",
			simRes.MaxFlow, distRes.MaxFlow, want)
	}
	if simRes.Rounds != distRes.Rounds {
		t.Errorf("rounds diverge: simulated %d, distributed %d", simRes.Rounds, distRes.Rounds)
	}
	if !reflect.DeepEqual(comparableRounds(simRes.RoundStats), comparableRounds(distRes.RoundStats)) {
		for i := range simRes.RoundStats {
			if i >= len(distRes.RoundStats) {
				break
			}
			s, d := comparableRounds(simRes.RoundStats)[i], comparableRounds(distRes.RoundStats)[i]
			if !reflect.DeepEqual(s, d) {
				t.Errorf("round %d counters diverge:\n simulated   %+v\n distributed %+v", i, s, d)
			}
		}
		t.Fatal("per-round counters diverge between backends")
	}
}

func TestDistributedDifferentialAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "dist-ws160", seed: 41}
	in, err := graphgen.WattsStrogatz(160, 6, 0.1, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, tc.seed+1)
	want := oracleValue(t, tc, in)

	tr := trace.New()
	h := distHarness(t, distmr.HarnessConfig{Workers: 3, Tracer: tr})
	for _, variant := range allVariants() {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			opts := Options{Variant: variant, KeepIntermediate: true}
			simC := testCluster(3)
			simRes, err := Run(simC, in, opts)
			if err != nil {
				t.Fatalf("simulated run: %v", err)
			}
			distC := testCluster(3)
			distC.Distributed = h.Master
			local := tr.Registry().Counter(distmr.CounterInputReadsLocal).Value()
			distRes, err := Run(distC, in, opts)
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			checkBackendParity(t, want, simRes, distRes)
			// Rounds >= 2 read their inputs where the previous round wrote
			// them, and every round's files are the simulated engine's.
			sameFiles(t, simC.FS, distC.FS, "ffmr/")
			if tr.Registry().Counter(distmr.CounterInputReadsLocal).Value() == local {
				t.Errorf("no input was read where it was written in %d rounds", distRes.Rounds)
			}
		})
	}
}

// TestDistributedDifferentialSpill runs the distributed backend against
// a budgeted simulated run: both sides use the same MemoryBudget, so
// spill segmentation and merge statistics must line up across the
// network shuffle.
func TestDistributedDifferentialSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "dist-spill-ws120", seed: 43}
	in, err := graphgen.WattsStrogatz(120, 6, 0.15, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 4, tc.seed+1)
	want := oracleValue(t, tc, in)

	h := distHarness(t, distmr.HarnessConfig{Workers: 3})
	for _, variant := range []Variant{FF2, FF5} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			simTr := trace.New()
			simRes, err := Run(budgetedCluster(t, 3), in,
				Options{Variant: variant, Tracer: simTr})
			if err != nil {
				t.Fatalf("budgeted simulated run: %v", err)
			}
			distC := testCluster(3)
			distC.MemoryBudget = spillBudget
			distC.MergeFanIn = 2
			distC.Distributed = h.Master
			distTr := trace.New()
			distRes, err := Run(distC, in, Options{Variant: variant, Tracer: distTr})
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			checkBackendParity(t, want, simRes, distRes)
			// Both backends publish out-of-core stats into their tracer's
			// registry; the totals must agree exactly, and must be real
			// spill activity (the budget is sized to force it).
			for _, name := range []string{trace.CounterSpills, trace.CounterSpilledBytes, trace.CounterMergePasses} {
				s := simTr.Registry().Counter(name).Value()
				d := distTr.Registry().Counter(name).Value()
				if s != d {
					t.Errorf("%s: simulated %d, distributed %d", name, s, d)
				}
				if s == 0 {
					t.Errorf("%s: simulated run reported zero (budget did not bind?)", name)
				}
			}
		})
	}
}

// TestDistributedDifferentialWorkerCrash injects worker crashes into the
// distributed run and compares it against a crash-free simulated run:
// reassignment, shuffle re-fetch and submission dedupe must leave no
// trace in the per-round counters.
func TestDistributedDifferentialWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "dist-crash-ws140", seed: 47}
	in, err := graphgen.WattsStrogatz(140, 6, 0.1, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, tc.seed+1)
	want := oracleValue(t, tc, in)

	for _, variant := range []Variant{FF2, FF5} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			simRes, err := Run(testCluster(3), in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("simulated run: %v", err)
			}
			// A fresh replacing harness per variant keeps dead workers from
			// one variant's run out of the next one's scheduler.
			h := distHarness(t, distmr.HarnessConfig{Workers: 3, Replace: true})
			distC := testCluster(3)
			distC.Distributed = h.Master
			distC.Fault.WorkerCrashRate = 0.02
			distC.Fault.Seed = tc.seed
			distRes, err := Run(distC, in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("distributed run with crashes: %v", err)
			}
			crashed := 0
			for _, w := range h.Workers() {
				if w.Crashed() {
					crashed++
				}
			}
			t.Logf("injected crashes killed %d workers", crashed)
			checkBackendParity(t, want, simRes, distRes)
		})
	}
}

// TestDistributedShuffleDifferential pins the shuffle parity invariant
// under injected worker crashes: every FF variant must reproduce the
// simulated engine's per-round Table I counters exactly. Shuffle
// transport — local reads, one fetch per source worker, re-fetches after
// a crash — may only change when bytes move, never how many are
// accounted: the fetch and inter-node counters are computed from segment
// metadata on the reduce path whichever way the bytes landed.
func TestDistributedShuffleDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "dist-shuffle-ws130", seed: 61}
	in, err := graphgen.WattsStrogatz(130, 6, 0.1, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, tc.seed+1)
	want := oracleValue(t, tc, in)

	for _, variant := range allVariants() {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			simRes, err := Run(testCluster(3), in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("simulated run: %v", err)
			}
			t.Run("worker-crash", func(t *testing.T) {
				h := distHarness(t, distmr.HarnessConfig{Workers: 3, Replace: true})
				distC := testCluster(3)
				distC.Distributed = h.Master
				distC.Fault.WorkerCrashRate = 0.02
				distC.Fault.Seed = tc.seed
				distRes, err := Run(distC, in, Options{Variant: variant})
				if err != nil {
					t.Fatalf("distributed run: %v", err)
				}
				checkBackendParity(t, want, simRes, distRes)
			})
		})
	}
}

// TestDistributedBFSDifferential runs the MR-BFS preprocessing pass on
// both backends.
func TestDistributedBFSDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	in, err := graphgen.WattsStrogatz(150, 6, 0.1, 53)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)

	simRes, err := RunBFS(testCluster(3), in, 4, "bfs/")
	if err != nil {
		t.Fatalf("simulated BFS: %v", err)
	}
	h := distHarness(t, distmr.HarnessConfig{Workers: 3})
	distC := testCluster(3)
	distC.Distributed = h.Master
	distRes, err := RunBFS(distC, in, 4, "bfs/")
	if err != nil {
		t.Fatalf("distributed BFS: %v", err)
	}

	if simRes.Rounds != distRes.Rounds || simRes.SinkDist != distRes.SinkDist ||
		simRes.Visited != distRes.Visited {
		t.Errorf("BFS results diverge: simulated rounds=%d dist=%d visited=%d, distributed rounds=%d dist=%d visited=%d",
			simRes.Rounds, simRes.SinkDist, simRes.Visited,
			distRes.Rounds, distRes.SinkDist, distRes.Visited)
	}
	if !reflect.DeepEqual(comparableRounds(simRes.RoundStats), comparableRounds(distRes.RoundStats)) {
		t.Error("per-round BFS counters diverge between backends")
	}
}

// TestDistributedRunLeavesNoGoroutines runs a full FF2 computation on
// the distributed backend and asserts that closing the harness winds
// down the master, the workers, and every per-job resource.
func TestDistributedRunLeavesNoGoroutines(t *testing.T) {
	defer leakcheck.Check(t)()
	h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: 3, Tracer: trace.New()})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	cluster := testCluster(3)
	cluster.Distributed = h.Master
	in := pathGraph(4, 2)
	res, err := Run(cluster, in, Options{Variant: FF2, Tracer: trace.New()})
	if err != nil {
		h.Close()
		t.Fatalf("Run: %v", err)
	}
	h.Close()
	if res.MaxFlow != 2 {
		t.Fatalf("max flow = %d, want 2", res.MaxFlow)
	}
}

// TestDistributedMultiProcessWorkers is the end-to-end smoke of the real
// deployment shape: it builds cmd/ffmr-worker, spawns three worker
// processes against a master in this process, and requires FF1 and FF5
// to match the simulated engine exactly across the process boundary.
func TestDistributedMultiProcessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke is slow; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "ffmr-worker")
	build := exec.Command("go", "build", "-o", bin, "ffmr/cmd/ffmr-worker")
	build.Dir = "../.." // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ffmr-worker: %v\n%s", err, out)
	}

	m, err := distmr.NewMaster(distmr.Config{})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	defer m.Shutdown()

	var procs []*exec.Cmd
	for i := 0; i < 3; i++ {
		cmd := exec.Command(bin, "-master", m.Addr(), "-dir", filepath.Join(t.TempDir(), "store"))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		procs = append(procs, cmd)
	}
	defer func() {
		// Master shutdown tells workers (via heartbeat replies) to exit.
		m.Shutdown()
		for _, p := range procs {
			if err := p.Wait(); err != nil {
				t.Errorf("worker exit: %v", err)
			}
		}
	}()
	if err := m.WaitForWorkers(3, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	tc := diffCase{name: "dist-procs-ws100", seed: 59}
	in, err := graphgen.WattsStrogatz(100, 6, 0.15, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 4, tc.seed+1)
	want := oracleValue(t, tc, in)

	for _, variant := range []Variant{FF1, FF5} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			simRes, err := Run(testCluster(3), in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("simulated run: %v", err)
			}
			distC := testCluster(3)
			distC.Distributed = m
			distRes, err := Run(distC, in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("multi-process run: %v", err)
			}
			checkBackendParity(t, want, simRes, distRes)
		})
	}
}

var _ mapreduce.Backend = (*distmr.Master)(nil)
