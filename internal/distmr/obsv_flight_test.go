package distmr

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"ffmr/internal/leakcheck"
	"ffmr/internal/obsv"
	"ffmr/internal/trace"
)

// runSeededCrashes runs the sum job on a 3-worker harness whose workers
// die from injected crashes (rate 0.12, seed 7: deterministic in job,
// task and assignment, so at least one worker always dies) and dump
// their tracers into dir. It returns the master's tracer and the
// crashed workers, each fully down.
func runSeededCrashes(t *testing.T, dir string) (*trace.Tracer, []*Worker, func()) {
	t.Helper()
	tr := trace.New()
	h, err := StartHarness(HarnessConfig{
		Workers:    3,
		Replace:    true,
		Tracer:     tr,
		WorkerObsv: obsv.Options{FlightDir: dir},
	})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	distC := sumCluster(t, 3, 120)
	distC.Distributed = h.Master
	distC.Fault.WorkerCrashRate = 0.12
	distC.Fault.Seed = 7
	if _, err := distC.Run(sumJob(distC.FS)); err != nil {
		h.Close()
		t.Fatalf("distributed run with crashes: %v", err)
	}
	// Wait for the dead to finish dying: the dump is written on their
	// teardown path.
	var crashed []*Worker
	for _, w := range h.Workers() {
		if w.Crashed() {
			w.Wait()
			crashed = append(crashed, w)
		}
	}
	if len(crashed) == 0 {
		h.Close()
		t.Fatal("no worker died from injected crashes; the test exercised nothing")
	}
	return tr, crashed, func() { h.Close() }
}

// TestCrashedWorkerLeavesFlightDump is the crash-record acceptance
// test: every crashed worker leaves one dump, each dump is a Chrome
// trace, and analyzing the master trace together with the dumps lists
// every crashed worker with reason crash and ends its events with the
// cause of death.
func TestCrashedWorkerLeavesFlightDump(t *testing.T) {
	defer leakcheck.Check(t)()

	dir := t.TempDir()
	tr, crashed, closeHarness := runSeededCrashes(t, dir)
	defer closeHarness()

	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(crashed) {
		t.Fatalf("found %d dumps, want one per crashed worker (%d)", len(paths), len(crashed))
	}
	var master bytes.Buffer
	if err := tr.WriteChromeTrace(&master); err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{master.Bytes()}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ParseChromeTrace(data); err != nil {
			t.Fatalf("dump %s does not parse as a trace: %v", p, err)
		}
		docs = append(docs, data)
	}
	events, err := trace.ParseChromeTraces(docs...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trace.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range crashed {
		src := fmt.Sprintf("worker-%d", w.ID())
		found := false
		for _, d := range rep.Dumps {
			if d.Source == src {
				found = true
				if d.Reason != "crash" {
					t.Errorf("dump of %s has reason %q, want crash", src, d.Reason)
				}
			}
		}
		if !found {
			t.Errorf("analysis lists no dump of %s: %+v", src, rep.Dumps)
		}
		last := ""
		for _, e := range rep.Events {
			if e.Source == src {
				last = e.Msg
			}
		}
		if last != "injected worker crash" {
			t.Errorf("%s's last event is %q, want the injected crash", src, last)
		}
	}
}

// TestDecisionEventsReconcileWithCounters holds the trace's decision
// events to the registry counters of the same seeded crash run: every
// reassignment and lost-map re-run is one event, exactly.
func TestDecisionEventsReconcileWithCounters(t *testing.T) {
	defer leakcheck.Check(t)()

	tr, _, closeHarness := runSeededCrashes(t, t.TempDir())
	defer closeHarness()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byMsg := map[string]int64{}
	for _, e := range events {
		if e.Cat == trace.CatEvent {
			byMsg[e.Name]++
		}
	}
	counters := tr.Registry().CounterSnapshot()
	for msg, counter := range map[string]string{
		"lease failed, reassigning":        CounterReassigns,
		"re-running map with lost outputs": CounterLostMapRecoveries,
	} {
		if byMsg[msg] != counters[counter] {
			t.Errorf("%d %q events, but counter %q = %d", byMsg[msg], msg, counter, counters[counter])
		}
	}
	if counters[CounterReassigns] == 0 {
		t.Error("the crash run reassigned nothing; the reconciliation exercised nothing")
	}
}

// TestDecideFilteredAllocs pins the cost of a decision nobody records:
// at a disabled slog level with no tracer, decide allocates nothing.
func TestDecideFilteredAllocs(t *testing.T) {
	log := obsv.NewLogger(&bytes.Buffer{}, "text", slog.LevelInfo)
	allocs := testing.AllocsPerRun(1000, func() {
		decide(log, nil, nil, slog.LevelDebug, "lease failed, reassigning", "phase", "map", "task", 3)
	})
	if allocs != 0 {
		t.Fatalf("filtered decide allocates %.1f objects per call, want 0", allocs)
	}
}

// TestMasterCrashDumpsTracer: an injected master crash records the crash
// on the master's tracer and dumps it with reason crash.
func TestMasterCrashDumpsTracer(t *testing.T) {
	defer leakcheck.Check(t)()

	dir := t.TempDir()
	m, err := NewMaster(Config{Tracer: trace.New(), Obsv: obsv.Options{FlightDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	m.Crash()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("dumps %v (%v), want one", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trace.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dumps) != 1 || rep.Dumps[0] != (trace.Dump{Source: "master", Reason: "crash"}) {
		t.Errorf("dumps = %+v", rep.Dumps)
	}
	if len(rep.Events) != 1 || rep.Events[0].Msg != "injected master crash" {
		t.Errorf("events = %+v, want the injected crash", rep.Events)
	}
}
