package core

import (
	"testing"

	"ffmr/internal/graphgen"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cp := &checkpoint{
		Variant: FF3, Reducers: 7, Round: 4, MaxFlow: 123, Converged: true,
		Stats: []RoundStat{
			{Round: 0, MapOutRecords: 10, OutputBytes: 999, SimTime: 5},
			{Round: 1, APaths: 3, FlowDelta: 3, ShuffleBytes: 4567, WallTime: 17},
		},
	}
	got, err := decodeCheckpoint(encodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Variant != cp.Variant || got.Reducers != cp.Reducers || got.Round != cp.Round ||
		got.MaxFlow != cp.MaxFlow || got.Converged != cp.Converged {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Stats) != 2 || got.Stats[1] != cp.Stats[1] {
		t.Fatalf("stats mismatch: %+v", got.Stats)
	}
	if _, err := decodeCheckpoint([]byte{0x07}); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := decodeCheckpoint(encodeCheckpoint(cp)[:5]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestResumeContinuesInterruptedRun(t *testing.T) {
	base, err := graphgen.BarabasiAlbert(500, 4, 81)
	if err != nil {
		t.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 4, 6, 82)
	if err != nil {
		t.Fatal(err)
	}
	want := dinicValue(t, in)

	// Reference: uninterrupted run.
	full, err := Run(testCluster(3), in, Options{Variant: FF5, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if full.MaxFlow != want {
		t.Fatalf("reference run flow %d, want %d", full.MaxFlow, want)
	}

	// Interrupted run: stop after 2 rounds (MaxRounds exceeded -> error
	// with partial result), then resume on the SAME cluster/DFS.
	cluster := testCluster(3)
	opts := Options{Variant: FF5, Reducers: 4, MaxRounds: 2}
	if _, err := Run(cluster, in, opts); err == nil {
		t.Fatal("2-round run unexpectedly converged; pick a harder graph")
	}

	opts.MaxRounds = 0 // default
	opts.Resume = true
	res, err := Run(cluster, in, opts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.MaxFlow != want {
		t.Fatalf("resumed run flow %d, want %d", res.MaxFlow, want)
	}
	if !res.Converged {
		t.Fatal("resumed run did not converge")
	}
	// Round stats must cover every round exactly once (0..Rounds).
	for i, rs := range res.RoundStats {
		if rs.Round != i {
			t.Fatalf("stats gap at index %d: round %d", i, rs.Round)
		}
	}
}

// normalizeStat blanks the fields that legitimately differ between two
// equivalent runs: MaxQueue depends on aug_proc consumer scheduling even
// with a single reducer, and the time fields on host load.
func normalizeStat(rs RoundStat) RoundStat {
	rs.MaxQueue = 0
	rs.SimTime = 0
	rs.WallTime = 0
	return rs
}

// TestResumeEquivalence is the checkpoint/resume equivalence check: a
// run interrupted at a mid-round checkpoint and resumed must report the
// same flow value, the same round count, AND identical per-round
// counters as a never-interrupted run — resuming may not replay, skip or
// alter any round. DeterministicAccept makes the per-round counters
// reproducible: a single reducer fixes the order batches are submitted
// in, but aug_proc's consumer pool decodes batches in parallel and
// decides them in whichever order the consumers reach the lock, so FCFS
// acceptance still varies from run to run.
func TestResumeEquivalence(t *testing.T) {
	base, err := graphgen.BarabasiAlbert(300, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(base, 4, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Variant: FF5, Reducers: 1, DeterministicAccept: true}

	full, err := Run(testCluster(3), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rounds < 4 {
		t.Fatalf("reference run took only %d rounds; pick a harder graph", full.Rounds)
	}

	// Interrupt mid-run at the checkpoint written after round 2, then
	// resume on the same cluster/DFS.
	cluster := testCluster(3)
	interrupted := opts
	interrupted.MaxRounds = 2
	if _, err := Run(cluster, in, interrupted); err == nil {
		t.Fatal("2-round run unexpectedly converged")
	}
	resumeOpts := opts
	resumeOpts.Resume = true
	res, err := Run(cluster, in, resumeOpts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	if res.MaxFlow != full.MaxFlow {
		t.Errorf("resumed flow %d, uninterrupted %d", res.MaxFlow, full.MaxFlow)
	}
	if res.MaxFlow != dinicValue(t, in) {
		t.Errorf("resumed flow %d disagrees with Dinic %d", res.MaxFlow, dinicValue(t, in))
	}
	if res.Rounds != full.Rounds {
		t.Errorf("resumed rounds %d, uninterrupted %d", res.Rounds, full.Rounds)
	}
	if len(res.RoundStats) != len(full.RoundStats) {
		t.Fatalf("resumed has %d round stats, uninterrupted %d",
			len(res.RoundStats), len(full.RoundStats))
	}
	for i := range full.RoundStats {
		got, want := normalizeStat(res.RoundStats[i]), normalizeStat(full.RoundStats[i])
		if got != want {
			t.Errorf("round %d counters diverge after resume:\n resumed: %+v\n    full: %+v",
				full.RoundStats[i].Round, got, want)
		}
	}
}

func TestResumeAfterConvergenceIsNoOp(t *testing.T) {
	in := pathGraph(4, 1)
	cluster := testCluster(2)
	opts := Options{Variant: FF2, Reducers: 2}
	first, err := Run(cluster, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	second, err := Run(cluster, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.MaxFlow != first.MaxFlow || second.Rounds != first.Rounds {
		t.Fatalf("no-op resume diverged: %+v vs %+v", second, first)
	}
}

func TestResumeRejectsMismatchedOptions(t *testing.T) {
	in := pathGraph(4, 1)
	cluster := testCluster(2)
	if _, err := Run(cluster, in, Options{Variant: FF2, Reducers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cluster, in, Options{Variant: FF5, Reducers: 2, Resume: true}); err == nil {
		t.Fatal("variant mismatch accepted on resume")
	}
	if _, err := Run(cluster, in, Options{Variant: FF2, Reducers: 3, Resume: true}); err == nil {
		t.Fatal("reducer mismatch accepted on resume")
	}
}

func TestResumeWithoutCheckpointRunsFresh(t *testing.T) {
	in := pathGraph(4, 1)
	res, err := Run(testCluster(2), in, Options{Variant: FF1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFlow != 1 {
		t.Fatalf("flow = %d", res.MaxFlow)
	}
}
