package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func exportDump(t *testing.T, tr *Tracer, source, reason string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteDump(&buf, source, reason); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDumpRing drains more spans than the ring holds: a dump shows the
// last DumpRing drained spans plus what the tracer still holds, and the
// registry counts every span the ring pushed out.
func TestDumpRing(t *testing.T) {
	tr := New()
	const drained = DumpRing + 44
	for i := 0; i < drained; i++ {
		tr.Start(CatTask, fmt.Sprintf("t%d", i), nil).End()
	}
	tr.Drain()
	held := tr.Start(CatTask, "running", nil)
	defer held.End()

	events, err := ParseChromeTrace(exportDump(t, tr, "worker-1", "crash"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range events {
		if e.Cat == CatTask {
			names = append(names, e.Name)
		}
	}
	if len(names) != DumpRing+1 {
		t.Fatalf("dump holds %d task spans, want %d ring + 1 held", len(names), DumpRing)
	}
	if names[0] != "t44" || names[DumpRing-1] != fmt.Sprintf("t%d", drained-1) || names[DumpRing] != "running" {
		t.Fatalf("dump order: first %q, last ring %q, held %q", names[0], names[DumpRing-1], names[DumpRing])
	}
	if got := tr.Registry().Counter(CounterDumpRingEvictions).Value(); got != 44 {
		t.Fatalf("ring evictions = %d, want 44", got)
	}
}

// TestEventNilTracer: events and dumps are inert on a nil tracer, and
// the nil dump is still a parseable trace.
func TestEventNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Event(nil, "crash", "task", 1)
	if events, err := ParseChromeTrace(exportDump(t, tr, "w", "crash")); err != nil || len(events) != 1 {
		t.Fatalf("nil dump: %d events, %v; want only the metadata event", len(events), err)
	}
}

// TestEventSpans: an event is an ended, zero-duration span carrying its
// kv pairs, exported as a Chrome instant event under its parent.
func TestEventSpans(t *testing.T) {
	tr := New()
	job := tr.Start(CatJob, "job", nil)
	tr.Event(job, "lease failed", "task", 3, "worker", uint64(2), "err", fmt.Errorf("boom"))
	job.End()

	shipped := tr.Drain()
	if len(shipped) != 2 || shipped[1].Cat != CatEvent || shipped[1].Parent != job.ID() || shipped[1].Dur != 0 {
		t.Fatalf("drained %+v, want the job and its event", shipped)
	}
	events, err := ParseChromeTrace(exportDump(t, tr, "master", "live"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Cat != CatEvent {
			continue
		}
		task, _ := e.Int("task")
		parent, _ := e.Int("parent_span")
		if e.Ph != "i" || task != 3 || e.Args["err"] != "boom" || parent != job.ID() {
			t.Fatalf("event exported as %+v", e)
		}
		return
	}
	t.Fatal("no event in the dump")
}

// TestDumpRingConcurrent records, drains and dumps from several
// goroutines at once. Run under -race.
func TestDumpRingConcurrent(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start(CatTask, "t", nil)
				tr.Event(sp, "decision", "g", g)
				sp.End()
				if i%20 == 0 {
					tr.Drain()
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if _, err := ParseChromeTrace(exportDump(t, tr, "w", "live")); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestDumpMergeAnalyze merges a master trace with a worker's crash dump
// whose span ids collide with the master's: the analysis keeps the
// master's round intact, names the dump, and ends the worker's events
// with its crash — on the master's timeline.
func TestDumpMergeAnalyze(t *testing.T) {
	master := New()
	round := master.Start(CatRound, "round-1", nil)
	round.SetInt(AttrRound, 1)
	job := master.Start(CatJob, "job", round)
	master.Event(job, "lease failed, reassigning", "task", 2)
	time.Sleep(2 * time.Millisecond)
	job.End()
	round.End()

	worker := New()
	task := worker.Start(CatTask, "map-00002", nil)
	task.SetInt("worker", 7)
	worker.Event(task, "task failed", "task", 2)
	task.End()
	worker.Drain()
	worker.Event(nil, "injected worker crash", "task", 2)

	var mbuf bytes.Buffer
	if err := master.WriteChromeTrace(&mbuf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTraces(mbuf.Bytes(), exportDump(t, worker, "worker-7", "crash"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 1 || len(rep.Rounds[0].CriticalPath) != 2 {
		t.Fatalf("rounds %+v, want one round whose path is round -> job", rep.Rounds)
	}
	if len(rep.Dumps) != 1 || rep.Dumps[0] != (Dump{Source: "worker-7", Reason: "crash"}) {
		t.Fatalf("dumps = %+v", rep.Dumps)
	}
	var got []string
	for _, e := range rep.Events {
		got = append(got, e.Source+": "+e.Msg)
	}
	want := []string{"main: lease failed, reassigning", "worker-7: task failed", "worker-7: injected worker crash"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("events %q, want %q", got, want)
	}
	var out strings.Builder
	rep.Format(&out)
	for _, s := range []string{"dump: worker-7 reason=crash", "events (3):", "injected worker crash task=2"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("report missing %q:\n%s", s, out.String())
		}
	}
}

// TestParseChromeTracesRejectsGarbage: a file that is not a trace fails
// the merge and names which one.
func TestParseChromeTracesRejectsGarbage(t *testing.T) {
	good := exportDump(t, New(), "w", "crash")
	if _, err := ParseChromeTraces(good, []byte("{not json")); err == nil || !strings.Contains(err.Error(), "document 2") {
		t.Fatalf("err = %v, want a parse error naming document 2", err)
	}
}

// TestAnalyzeParentCycle: a parent_span cycle (round 1 -> job 2 ->
// round 1) must not hang the critical-path walk or the attribution.
func TestAnalyzeParentCycle(t *testing.T) {
	doc := `{"traceEvents":[
	 {"name":"round-1","cat":"round","ph":"X","ts":0,"dur":100,"args":{"span":1,"parent_span":2,"round":1}},
	 {"name":"job","cat":"job","ph":"X","ts":10,"dur":50,"args":{"span":2,"parent_span":1}}]}`
	done := make(chan *Report, 1)
	go func() {
		events, err := ParseChromeTrace([]byte(doc))
		if err != nil {
			t.Error(err)
		}
		rep, _ := Analyze(events)
		rep.Format(&strings.Builder{})
		done <- rep
	}()
	select {
	case rep := <-done:
		if len(rep.Rounds) != 1 || len(rep.Rounds[0].CriticalPath) != 2 {
			t.Fatalf("rounds = %+v", rep.Rounds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Analyze did not return on a parent_span cycle")
	}
}

// FuzzAnalyze: any document that parses must analyze and format
// without panicking or hanging.
func FuzzAnalyze(f *testing.F) {
	var buf bytes.Buffer
	tr := New()
	round := tr.Start(CatRound, "round-1", nil)
	tr.Event(tr.Start(CatTask, "map-00000", round), "task failed")
	round.End()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseChromeTrace(data)
		if err != nil {
			return
		}
		rep, err := Analyze(events)
		if err != nil {
			return
		}
		rep.Format(&strings.Builder{})
	})
}
