package core

import (
	"testing"
	"time"

	"ffmr/internal/chaos"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/trace"
)

// This file is the chaos acceptance harness: FFMR runs on the
// distributed backend while a seeded chaos schedule joins, drains,
// slows, partitions and restarts cluster components underneath it, and
// the result must still match the simulated engine byte for byte on the
// flow value and every comparable per-round counter. Parity here is the
// strongest statement the repo can make about the recovery machinery:
// reassignment, drain hand-off, shuffle re-fetch, master-restart resume
// and (task, exec) submission dedupe all leave zero trace in the
// counters, exactly as DESIGN.md §7 requires.

// chaosParityKinds are the injections used for parity runs. CrashWorker
// is left out: abrupt crashes are covered separately by
// TestDistributedDifferentialWorkerCrash with a replacing harness, and
// here they would only shrink the fleet the remaining seeds run on.
func chaosParityKinds() []chaos.EventKind {
	return []chaos.EventKind{
		chaos.JoinWorker, chaos.DrainWorker, chaos.SlowWorker,
		chaos.PartitionWorker, chaos.RestartMaster,
	}
}

// chaosRun executes one FFMR computation against a supervised cluster
// while the runner fires the schedule from another goroutine, and
// returns the result plus the applied-event log.
func chaosRun(t *testing.T, in *graph.Input, variant Variant, sched chaos.Schedule) (*Result, []string) {
	t.Helper()
	sup, err := chaos.StartSupervisor(chaos.SupervisorConfig{Workers: 3, Tracer: trace.New()})
	if err != nil {
		t.Fatalf("StartSupervisor: %v", err)
	}
	defer sup.Close()

	runner := chaos.NewRunner(sup, sched)
	runnerDone := make(chan []string, 1)
	go func() { runnerDone <- runner.Run() }()

	distC := testCluster(3)
	distC.Distributed = sup
	res, err := Run(distC, in, Options{Variant: variant})
	applied := <-runnerDone
	if err != nil {
		t.Fatalf("distributed run under chaos: %v\napplied events:\n  %v", err, applied)
	}
	return res, applied
}

// TestChaosSeededDifferentialParity runs ten fixed chaos seeds, rotating
// through every FFMR variant, and requires distributed-vs-simulated
// parity under each schedule. The seeds are fixed so a failure is
// reproducible: re-run with the same seed and the runner fires the same
// events against the same fleet shape.
func TestChaosSeededDifferentialParity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "chaos-ws120", seed: 61}
	in, err := graphgen.WattsStrogatz(120, 6, 0.1, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, tc.seed+1)
	want := oracleValue(t, tc, in)

	variants := allVariants()
	simRes := make(map[Variant]*Result, len(variants))
	for _, v := range variants {
		res, err := Run(testCluster(3), in, Options{Variant: v})
		if err != nil {
			t.Fatalf("simulated %s run: %v", v, err)
		}
		simRes[v] = res
	}

	for i, seed := range []int64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110} {
		variant := variants[i%len(variants)]
		sched := chaos.Generate(seed, chaos.Profile{
			Events:   5,
			Horizon:  800 * time.Millisecond,
			Kinds:    chaosParityKinds(),
			MaxSlot:  5,
			MaxDelay: 20 * time.Millisecond,
			MaxFor:   200 * time.Millisecond,
		})
		t.Run(variant.String(), func(t *testing.T) {
			distRes, applied := chaosRun(t, in, variant, sched)
			t.Logf("seed %d applied events:", seed)
			for _, line := range applied {
				t.Logf("  %s", line)
			}
			checkBackendParity(t, want, simRes[variant], distRes)
		})
	}
}

// TestChaosMasterRestartRecovery kills the master mid-computation (an
// explicit schedule, not a generated one, so the restart lands while
// rounds are in flight) and requires the job to complete against the
// replacement generations with full counter parity. Identical accepted
// counts per round are exactly the (task, exec) dedupe invariant of
// DESIGN.md §7: if a restarted master re-ran a completed reduce, or a
// retried round double-submitted to aug_proc, the accepted counters
// would diverge from the simulated run.
func TestChaosMasterRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential harness is slow; skipped with -short")
	}
	tc := diffCase{name: "chaos-restart-ws120", seed: 67}
	in, err := graphgen.WattsStrogatz(120, 6, 0.1, tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	graphgen.RandomCapacities(in, 5, tc.seed+1)
	want := oracleValue(t, tc, in)

	simRes, err := Run(testCluster(3), in, Options{Variant: FF2})
	if err != nil {
		t.Fatalf("simulated run: %v", err)
	}

	sched := chaos.Schedule{Events: []chaos.Event{
		{At: 150 * time.Millisecond, Kind: chaos.RestartMaster},
		{At: 450 * time.Millisecond, Kind: chaos.RestartMaster},
	}}
	sup, err := chaos.StartSupervisor(chaos.SupervisorConfig{Workers: 3, Tracer: trace.New()})
	if err != nil {
		t.Fatalf("StartSupervisor: %v", err)
	}
	defer sup.Close()

	runner := chaos.NewRunner(sup, sched)
	runnerDone := make(chan []string, 1)
	go func() { runnerDone <- runner.Run() }()

	distC := testCluster(3)
	distC.Distributed = sup
	distRes, err := Run(distC, in, Options{Variant: FF2})
	applied := <-runnerDone
	if err != nil {
		t.Fatalf("distributed run across master restarts: %v\napplied events:\n  %v", err, applied)
	}
	if g := sup.Generation(); g < 2 {
		t.Errorf("master generation = %d, want >= 2 (restart never fired?)", g)
	}
	checkBackendParity(t, want, simRes, distRes)
}

var _ mapreduce.Backend = (*chaos.Supervisor)(nil)
