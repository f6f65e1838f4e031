package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/trace"
)

// This file is the out-of-core shuffle acceptance harness: every FFMR
// variant runs the same graph twice — once with the unbounded in-memory
// shuffle and once with a memory budget small enough to force multiple
// spills per map task and multiple merge passes per reduce task — and
// the two runs must agree on the max-flow value and on every per-round
// Table I counter.

// spillBudget is deliberately tiny relative to per-task map output so
// every substantial map task spills repeatedly.
const spillBudget = 1 << 10

// budgetedCluster builds a cluster on the out-of-core shuffle path:
// small memory budget, disk spill dir, minimal merge fan-in (so segment
// counts above 2 need intermediate merge passes), and compression to
// exercise the DEFLATE stage.
func budgetedCluster(t *testing.T, nodes int) *mapreduce.Cluster {
	c := testCluster(nodes)
	c.MemoryBudget = spillBudget
	c.SpillDir = t.TempDir()
	c.SpillCompress = true
	c.MergeFanIn = 2
	return c
}

// comparableRounds strips the fields that legitimately differ between
// runs from per-round stats, leaving the record/byte counters: the
// timings, and MaxQueue, which counts the paths aug_proc held — a
// re-executed reduce task's copies included, so a run with task failures
// holds more.
func comparableRounds(stats []RoundStat) []RoundStat {
	out := append([]RoundStat(nil), stats...)
	for i := range out {
		out[i].SimTime, out[i].WallTime, out[i].MaxQueue = 0, 0, 0
	}
	return out
}

func TestSpillDifferentialAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "spill-ws220", seed: 21}
	in, err := graphgen.WattsStrogatz(220, 8, 0.1, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, tc.seed+1)
	want := oracleValue(t, tc, in)

	for _, variant := range allVariants() {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			t.Parallel()
			baseRes, err := Run(testCluster(3), in, Options{Variant: variant})
			if err != nil {
				t.Fatalf("in-memory run: %v", err)
			}
			tr := trace.New()
			budRes, err := Run(budgetedCluster(t, 3), in,
				Options{Variant: variant, Tracer: tr})
			if err != nil {
				t.Fatalf("budgeted run: %v", err)
			}

			if baseRes.MaxFlow != want || budRes.MaxFlow != want {
				t.Errorf("max flow: in-memory %d, budgeted %d, oracles say %d",
					baseRes.MaxFlow, budRes.MaxFlow, want)
			}
			if baseRes.Rounds != budRes.Rounds {
				t.Errorf("rounds diverge: in-memory %d, budgeted %d", baseRes.Rounds, budRes.Rounds)
			}
			if !reflect.DeepEqual(comparableRounds(baseRes.RoundStats), comparableRounds(budRes.RoundStats)) {
				for i := range baseRes.RoundStats {
					if i >= len(budRes.RoundStats) {
						break
					}
					b, s := comparableRounds(baseRes.RoundStats)[i], comparableRounds(budRes.RoundStats)[i]
					if !reflect.DeepEqual(b, s) {
						t.Errorf("round %d counters diverge:\n in-memory %+v\n budgeted  %+v", i, b, s)
					}
				}
				t.Fatal("per-round counters diverge between shuffle paths")
			}

			// The budgeted run must actually have exercised the spill path.
			reg := tr.Registry()
			if v := reg.Counter(trace.CounterSpills).Value(); v == 0 {
				t.Error("no spills recorded by the budgeted run")
			}
			if v := reg.Counter(trace.CounterMergePasses).Value(); v < 2 {
				t.Errorf("merge passes = %d, want >= 2", v)
			}

			// Per-task depth, via the exported trace: with every record
			// smaller than the budget, any map attempt that wrote at least
			// two budgets of output must have spilled at least twice.
			for _, rs := range budRes.RoundStats {
				if rs.MaxRecordBytes >= spillBudget {
					t.Fatalf("round %d has a %d-byte record >= the %d-byte budget; "+
						"the multi-spill assertion below would be unsound",
						rs.Round, rs.MaxRecordBytes, spillBudget)
				}
			}
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			evs, err := trace.ParseChromeTrace(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			multiSpillTasks, exportedSpills := 0, false
			for i := range evs {
				e := &evs[i]
				if e.Name == trace.CounterSpills {
					if v, ok := e.Int("value"); ok && v > 0 {
						exportedSpills = true
					}
				}
				if e.Cat != trace.CatTask || !strings.HasPrefix(e.Name, "map-") {
					continue
				}
				raw, ok := e.Int("raw_bytes")
				if !ok {
					continue // failed or in-memory attempt
				}
				spills, _ := e.Int("spills")
				if raw >= 2*spillBudget {
					if spills < 2 {
						t.Errorf("map attempt %q wrote %d raw bytes with only %d spills", e.Name, raw, spills)
					}
					multiSpillTasks++
				}
			}
			if multiSpillTasks < 2 {
				t.Errorf("only %d map attempts exceeded two budgets of output; "+
					"budget too large for the multi-spill acceptance check", multiSpillTasks)
			}
			if !exportedSpills {
				t.Error("exported trace shows no nonzero spill counter")
			}
		})
	}
}

// TestAcceptReproducible pins the property the differential harness
// above relies on: two identical runs of an aug_proc variant with default
// options produce identical per-round counters, because aug_proc decides
// each round in canonical order whatever order concurrent reduce tasks
// submitted in.
func TestAcceptReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "det-ws120", seed: 11}
	in, err := graphgen.WattsStrogatz(120, 6, 0.2, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 7, tc.seed+1)

	a, err := Run(testCluster(3), in, Options{Variant: FF2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCluster(3), in, Options{Variant: FF2})
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxFlow != b.MaxFlow {
		t.Errorf("max flow diverges between identical runs: %d vs %d", a.MaxFlow, b.MaxFlow)
	}
	if !reflect.DeepEqual(comparableRounds(a.RoundStats), comparableRounds(b.RoundStats)) {
		t.Errorf("per-round counters diverge between identical runs:\n a %+v\n b %+v",
			comparableRounds(a.RoundStats), comparableRounds(b.RoundStats))
	}
}

// TestSpillDifferentialDiskBackedDFS runs one variant end to end with
// BOTH subsystems on disk: spill runs for the shuffle and a DiskStore
// for the DFS blocks. Results must match the all-in-memory run.
func TestSpillDifferentialDiskBackedDFS(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "spill-disk-ba60", seed: 31}
	in, err := graphgen.BarabasiAlbert(60, 3, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	want := oracleValue(t, tc, in)

	baseRes, err := Run(testCluster(3), in, Options{Variant: FF5})
	if err != nil {
		t.Fatal(err)
	}

	store, err := dfs.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.NewWithStore(dfs.Config{Nodes: 3, BlockSize: 16 << 10, Replication: 2}, store)
	defer fs.Close()
	cluster := mapreduce.NewCluster(3, 4, fs)
	cluster.Cost = mapreduce.ZeroCostModel()
	cluster.MemoryBudget = spillBudget
	cluster.SpillDir = t.TempDir()
	cluster.MergeFanIn = 2

	diskRes, err := Run(cluster, in, Options{Variant: FF5})
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.MaxFlow != want || diskRes.MaxFlow != want {
		t.Errorf("max flow: in-memory %d, disk-backed %d, oracles say %d",
			baseRes.MaxFlow, diskRes.MaxFlow, want)
	}
	if !reflect.DeepEqual(comparableRounds(baseRes.RoundStats), comparableRounds(diskRes.RoundStats)) {
		t.Error("per-round counters diverge between in-memory and fully disk-backed runs")
	}
}
