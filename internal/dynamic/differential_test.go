package dynamic

import (
	"testing"

	"ffmr/internal/core"
	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/maxflow"
	"ffmr/internal/trace"
)

// This file is the dynamic-update acceptance harness: randomized update
// batches (inserts, deletes, capacity increases and decreases) are
// applied to the FB' crawl-chain graphs, and after every batch the
// warm-restarted flow must equal a from-scratch oracle recompute (Dinic
// and Push-Relabel) on the updated graph — on the simulated engine and
// on the distributed distmr backend.

// fbPrime builds the scaled-down FB' chain used by the dynamic
// differential: nested crawl subgraphs with random capacities and super
// source/sink taps, like the paper's FB1..FB3 at test scale.
func fbPrime(t *testing.T) []*graph.Input {
	t.Helper()
	specs := []graphgen.FBSpec{
		{Name: "FB1'", Vertices: 210},
		{Name: "FB2'", Vertices: 730},
		{Name: "FB3'", Vertices: 970},
	}
	chain, err := graphgen.CrawlChain(specs, 3, 17)
	if err != nil {
		t.Fatalf("CrawlChain: %v", err)
	}
	out := make([]*graph.Input, len(chain))
	for i, base := range chain {
		graphgen.RandomCapacities(base, 8, int64(20+i))
		withST, err := graphgen.AttachSuperSourceSink(base, 4, 3, 99)
		if err != nil {
			t.Fatalf("AttachSuperSourceSink(%s): %v", specs[i].Name, err)
		}
		out[i] = withST
	}
	return out
}

// bothOracles recomputes the max flow of in from scratch with two
// independent solvers and fails unless they agree.
func bothOracles(t *testing.T, in *graph.Input) int64 {
	t.Helper()
	net1, err := maxflow.FromInput(in)
	if err != nil {
		t.Fatalf("FromInput: %v", err)
	}
	dinic := maxflow.Dinic(net1, int(in.Source), int(in.Sink))
	net2, _ := maxflow.FromInput(in)
	pr := maxflow.PushRelabel(net2, int(in.Source), int(in.Sink))
	if dinic != pr {
		t.Fatalf("oracles disagree: Dinic %d, Push-Relabel %d", dinic, pr)
	}
	return dinic
}

func TestDynamicDifferentialFBChain(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	graphs := fbPrime(t)
	names := []string{"FB1'", "FB2'", "FB3'"}
	// FB1' sweeps representative variants; the larger graphs pin FF5.
	variantsFor := map[string][]core.Variant{
		"FB1'": {core.FF1, core.FF3, core.FF5},
		"FB2'": {core.FF5},
		"FB3'": {core.FF5},
	}
	for i, in := range graphs {
		in := in
		name := names[i]
		t.Run(name, func(t *testing.T) {
			for _, v := range variantsFor[name] {
				v := v
				t.Run(v.String(), func(t *testing.T) {
					cluster := testCluster(3)
					snap, err := Solve(cluster, in, core.Options{Variant: v})
					if err != nil {
						t.Fatalf("Solve: %v", err)
					}
					if want := bothOracles(t, in); snap.Result.MaxFlow != want {
						t.Fatalf("cold flow = %d, oracles say %d", snap.Result.MaxFlow, want)
					}
					checkSnapshot(t, cluster, snap)
					for gen := 1; gen <= 3; gen++ {
						batch, err := graphgen.GenerateUpdates(
							snap.Input, 25, graphgen.DefaultUpdateProfile(), int64(100*i+10*int(v)+gen))
						if err != nil {
							t.Fatalf("gen %d: GenerateUpdates: %v", gen, err)
						}
						out, err := Apply(cluster, snap, batch)
						if err != nil {
							t.Fatalf("gen %d: Apply: %v", gen, err)
						}
						if want := bothOracles(t, out.Snapshot.Input); out.Warm.MaxFlow != want {
							t.Fatalf("gen %d: warm flow = %d, oracles say %d (violations=%d cancelled=%d)",
								gen, out.Warm.MaxFlow, want, out.Violations, out.CancelledFlow)
						}
						checkSnapshot(t, cluster, out.Snapshot)
						snap = out.Snapshot
					}
				})
			}
		})
	}
}

// TestDynamicDifferentialPaperTermination exercises the pending-deltas
// path: under the paper's termination rule the cold run can stop with
// accepted paths whose deltas were never folded into the records. Apply
// must account for them, and the warm run — which uses the fixpoint
// termination rule — still converges to the true max flow of the updated
// graph.
func TestDynamicDifferentialPaperTermination(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	in := fbPrime(t)[0]
	cluster := testCluster(3)
	snap, err := Solve(cluster, in, core.Options{
		Variant: core.FF5, Termination: core.TerminationPaper,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	checkSnapshot(t, cluster, snap)
	for gen := 1; gen <= 2; gen++ {
		batch, err := graphgen.GenerateUpdates(snap.Input, 20, graphgen.DefaultUpdateProfile(), int64(gen))
		if err != nil {
			t.Fatalf("GenerateUpdates: %v", err)
		}
		out, err := Apply(cluster, snap, batch)
		if err != nil {
			t.Fatalf("gen %d: Apply: %v", gen, err)
		}
		if want := bothOracles(t, out.Snapshot.Input); out.Warm.MaxFlow != want {
			t.Fatalf("gen %d: warm flow = %d, oracles say %d", gen, out.Warm.MaxFlow, want)
		}
		checkSnapshot(t, cluster, out.Snapshot)
		snap = out.Snapshot
	}
}

// TestDynamicDifferentialDistributed runs the same batch chain on the
// simulated engine and on the real master/worker backend: both must
// match the oracles and each other round for round.
func TestDynamicDifferentialDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	in := fbPrime(t)[0]
	h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: 3, Tracer: trace.New()})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()

	opts := core.Options{Variant: core.FF5}
	simC := testCluster(3)
	distC := testCluster(3)
	distC.Distributed = h.Master

	simSnap, err := Solve(simC, in, opts)
	if err != nil {
		t.Fatalf("simulated Solve: %v", err)
	}
	distSnap, err := Solve(distC, in, opts)
	if err != nil {
		t.Fatalf("distributed Solve: %v", err)
	}
	if simSnap.Result.MaxFlow != distSnap.Result.MaxFlow {
		t.Fatalf("cold backends disagree: simulated %d, distributed %d",
			simSnap.Result.MaxFlow, distSnap.Result.MaxFlow)
	}

	for gen := 1; gen <= 3; gen++ {
		batch, err := graphgen.GenerateUpdates(simSnap.Input, 20, graphgen.DefaultUpdateProfile(), int64(7*gen))
		if err != nil {
			t.Fatalf("GenerateUpdates: %v", err)
		}
		simOut, err := Apply(simC, simSnap, batch)
		if err != nil {
			t.Fatalf("gen %d: simulated Apply: %v", gen, err)
		}
		distOut, err := Apply(distC, distSnap, batch)
		if err != nil {
			t.Fatalf("gen %d: distributed Apply: %v", gen, err)
		}
		want := bothOracles(t, simOut.Snapshot.Input)
		if simOut.Warm.MaxFlow != want || distOut.Warm.MaxFlow != want {
			t.Fatalf("gen %d: warm flow simulated %d / distributed %d, oracles say %d",
				gen, simOut.Warm.MaxFlow, distOut.Warm.MaxFlow, want)
		}
		if simOut.Warm.Rounds != distOut.Warm.Rounds {
			t.Errorf("gen %d: warm rounds diverge: simulated %d, distributed %d",
				gen, simOut.Warm.Rounds, distOut.Warm.Rounds)
		}
		if simOut.Violations != distOut.Violations || simOut.CancelledFlow != distOut.CancelledFlow {
			t.Errorf("gen %d: repair stats diverge: sim {%d %d} dist {%d %d}", gen,
				simOut.Violations, simOut.CancelledFlow, distOut.Violations, distOut.CancelledFlow)
		}
		checkSnapshot(t, simC, simOut.Snapshot)
		checkSnapshot(t, distC, distOut.Snapshot)
		simSnap, distSnap = simOut.Snapshot, distOut.Snapshot
	}
}
