package distmr

import (
	"testing"
	"time"

	"ffmr/internal/leakcheck"
	"ffmr/internal/mapreduce"
	"ffmr/internal/trace"
)

// The tests in this file pin the elastic-membership behavior: a worker
// joining mid-job takes work immediately, a graceful drain hands its
// winning map output off through the DFS and re-executes nothing, while
// a crash at the same point forces re-execution, and the master's
// published scaling hints track the queue an external supervisor would
// act on.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sumOutcome carries an async job's result.
type sumOutcome struct {
	res *mapreduce.Result
	err error
}

// runSumAsync starts the distributed job on its own goroutine and
// returns a channel carrying its outcome.
func runSumAsync(c *mapreduce.Cluster) chan sumOutcome {
	done := make(chan sumOutcome, 1)
	go func() {
		res, err := c.Run(sumJob(c.FS))
		done <- sumOutcome{res: res, err: err}
	}()
	return done
}

// TestJoinMidJobTakesWork starts a one-worker cluster on a job that is
// slow enough to still be mapping when a second worker registers. The
// late joiner must execute task attempts, appear live on /status, and
// the output and counters must still match the simulated engine.
func TestJoinMidJobTakesWork(t *testing.T) {
	defer leakcheck.Check(t)()

	const files, perFile = 8, 100
	simC := sumCluster(t, files, perFile)
	simRes, err := simC.Run(sumJob(simC.FS))
	if err != nil {
		t.Fatalf("simulated run: %v", err)
	}

	h, err := StartHarness(HarnessConfig{Workers: 1, Tracer: trace.New()})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()
	// Slow the founding worker down so the job is still running when the
	// second worker joins.
	h.Workers()[0].SetTaskDelay(10 * time.Millisecond)

	distC := sumCluster(t, files, perFile)
	distC.Distributed = h.Master
	done := runSumAsync(distC)

	// Join once the job is demonstrably underway.
	waitFor(t, 5*time.Second, "first task to finish", func() bool {
		return h.Workers()[0].TasksDone() >= 1
	})
	joiner, err := h.AddWorker()
	if err != nil {
		t.Fatalf("AddWorker: %v", err)
	}
	waitFor(t, 5*time.Second, "joiner to register", func() bool {
		return h.Master.LiveWorkers() == 2
	})
	st := h.Master.Status()
	found := false
	for _, ws := range st.Workers {
		if ws.ID == joiner.ID() {
			found = true
			if ws.State != "live" {
				t.Errorf("joiner state on /status = %q, want live", ws.State)
			}
		}
	}
	if !found {
		t.Error("joiner missing from /status worker list")
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("distributed run: %v", out.err)
	}
	if n := joiner.TasksDone(); n < 1 {
		t.Errorf("late joiner executed %d task attempts, want >= 1", n)
	}
	if !equalTotals(readTotals(t, simC.FS), readTotals(t, distC.FS)) {
		t.Error("output diverges from the simulated engine after mid-job join")
	}
	if simRes.Counters["mapped"] != out.res.Counters["mapped"] ||
		simRes.Counters["groups"] != out.res.Counters["groups"] {
		t.Errorf("counters diverge after mid-job join: simulated %v, distributed %v",
			simRes.Counters, out.res.Counters)
	}
}

// drainPoint runs the sum job against a fresh 3-worker harness, waits
// until worker 0 has completed at least two tasks mid-job, applies act
// to it, and returns the harness plus the job error.
func drainPoint(t *testing.T, act func(w *Worker)) (*Harness, *mapreduce.Cluster, error) {
	t.Helper()
	const files, perFile = 12, 80
	// One slot per worker plus a uniform slow-down stretches the map
	// phase to many waves, so the drain (or crash) lands mid-job with
	// the victim holding winning map output that reducers still need —
	// the hand-off (or recovery) must happen while the job runs, not be
	// mooted by the job finishing first.
	h, err := StartHarness(HarnessConfig{
		Workers: 3,
		Tracer:  trace.New(),
		Master:  Config{SlotsPerWorker: 1},
	})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	for _, w := range h.Workers() {
		w.SetTaskDelay(15 * time.Millisecond)
	}
	victim := h.Workers()[0]

	distC := sumCluster(t, files, perFile)
	distC.Distributed = h.Master
	done := runSumAsync(distC)

	waitFor(t, 10*time.Second, "victim to win tasks", func() bool {
		return victim.TasksDone() >= 2
	})
	act(victim)
	out := <-done
	return h, distC, out.err
}

// TestGracefulDrainHandsOffWithoutReexecution is the drain invariant:
// retiring a worker that holds winning map output must hand that output
// off through the DFS and re-execute zero completed maps — the lost-map
// recovery and reassignment counters stay at zero — and the drained
// worker must exit once the master retires it.
func TestGracefulDrainHandsOffWithoutReexecution(t *testing.T) {
	defer leakcheck.Check(t)()

	const files, perFile = 12, 80
	simC := sumCluster(t, files, perFile)
	simRes, err := simC.Run(sumJob(simC.FS))
	if err != nil {
		t.Fatalf("simulated run: %v", err)
	}

	h, distC, runErr := drainPoint(t, func(w *Worker) { w.Drain() })
	defer h.Close()
	if runErr != nil {
		t.Fatalf("distributed run with drain: %v", runErr)
	}

	reg := h.Master.registry()
	if n := reg.Counter(CounterLostMapRecoveries).Value(); n != 0 {
		t.Errorf("drain re-executed %d completed maps, want 0", n)
	}
	if n := reg.Counter(CounterReassigns).Value(); n != 0 {
		t.Errorf("drain caused %d reassignments, want 0", n)
	}
	if n := reg.Counter(CounterHandoffSegments).Value(); n == 0 {
		t.Error("no segments were handed off; the drain exercised nothing")
	}
	if n := reg.Counter(CounterDrains).Value(); n != 1 {
		t.Errorf("drains completed = %d, want 1", n)
	}

	// The drained worker is told to exit via its next heartbeat.
	victim := h.Workers()[0]
	waitFor(t, 5*time.Second, "drained worker to exit", victim.Dead)

	distRes, err := distC.Run(sumJob(distC.FS)) // second job on the shrunk fleet still works
	if err != nil {
		t.Fatalf("follow-up job after drain: %v", err)
	}
	if simRes.Counters["mapped"] != distRes.Counters["mapped"] {
		t.Errorf("counters diverge after drain: simulated %v, distributed %v",
			simRes.Counters, distRes.Counters)
	}
	if !equalTotals(readTotals(t, simC.FS), readTotals(t, distC.FS)) {
		t.Error("output diverges from the simulated engine after graceful drain")
	}
}

// TestCrashAtSamePointReexecutes is the control for the drain invariant:
// killing the worker at the same point loses its winning map output, so
// the scheduler must re-execute those maps (lost-map recoveries > 0).
func TestCrashAtSamePointReexecutes(t *testing.T) {
	defer leakcheck.Check(t)()

	const files, perFile = 12, 80
	simC := sumCluster(t, files, perFile)
	if _, err := simC.Run(sumJob(simC.FS)); err != nil {
		t.Fatalf("simulated run: %v", err)
	}

	h, distC, runErr := drainPoint(t, func(w *Worker) { w.Kill() })
	defer h.Close()
	if runErr != nil {
		t.Fatalf("distributed run with crash: %v", runErr)
	}

	reg := h.Master.registry()
	recovered := reg.Counter(CounterLostMapRecoveries).Value()
	reassigned := reg.Counter(CounterReassigns).Value()
	if recovered == 0 && reassigned == 0 {
		t.Error("crash triggered neither lost-map recovery nor reassignment; the control proves nothing")
	}
	if !equalTotals(readTotals(t, simC.FS), readTotals(t, distC.FS)) {
		t.Error("output diverges from the simulated engine after crash recovery")
	}
}

// TestDeadWorkerExpiresFromStatus pins the registry-expiry fix: a
// crashed worker is listed as dead on /status only until DeadRetention
// passes, then the janitor removes it entirely.
func TestDeadWorkerExpiresFromStatus(t *testing.T) {
	defer leakcheck.Check(t)()

	h, err := StartHarness(HarnessConfig{
		Workers: 2,
		Master: Config{
			HeartbeatInterval: 10 * time.Millisecond,
			DeadRetention:     50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()

	victim := h.Workers()[0]
	victimID := victim.ID()
	victim.Kill()

	// First the master notices the death (missed heartbeats mark it
	// dead), then the janitor expires the registry entry.
	waitFor(t, 5*time.Second, "death to be noticed", func() bool {
		return h.Master.LiveWorkers() == 1
	})
	waitFor(t, 5*time.Second, "dead worker to expire from /status", func() bool {
		for _, ws := range h.Master.Status().Workers {
			if ws.ID == victimID {
				return false
			}
		}
		return true
	})
}

// TestStatusScalingHints reads the /status scaling hints an external
// supervisor polls. A one-worker cluster under a queue deeper than its
// slots must report queued and leased tasks on its one live worker while
// the job runs, and an empty queue with a recorded queue-wait p95 after.
func TestStatusScalingHints(t *testing.T) {
	defer leakcheck.Check(t)()

	h, err := StartHarness(HarnessConfig{Workers: 1, Tracer: trace.New()})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()
	h.Workers()[0].SetTaskDelay(50 * time.Millisecond)

	// 12 map tasks on one worker's 4 slots: three waves of 50 ms each.
	distC := sumCluster(t, 12, 60)
	distC.Distributed = h.Master
	done := runSumAsync(distC)
	waitFor(t, 5*time.Second, "a queued, leased job on one live worker", func() bool {
		hints := h.Master.Status().Hints
		return hints.QueueDepth > 0 && hints.InFlight > 0 && hints.WorkersLive == 1
	})
	if out := <-done; out.err != nil {
		t.Fatalf("distributed run: %v", out.err)
	}

	hints := h.Master.Status().Hints
	if hints.QueueDepth != 0 || hints.InFlight != 0 {
		t.Errorf("after the job: queue_depth %d, in_flight %d, want 0 and 0", hints.QueueDepth, hints.InFlight)
	}
	if hints.QueueWaitP95NS <= 0 {
		t.Errorf("after the job: queue_wait_p95_ns %d, want > 0", hints.QueueWaitP95NS)
	}
}
