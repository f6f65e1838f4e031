package distmr

import (
	"bytes"
	"testing"
	"time"

	"ffmr/internal/leakcheck"
	"ffmr/internal/trace"
)

// TestSpanShippingStitchesWorkerSpans runs a job through the harness and
// asserts the master's trace ends up holding worker-recorded task and
// shuffle-fetch spans stitched under the master's job span — the whole
// DESIGN.md §9 pipeline over the real wire: worker tracer drain →
// at-least-once heartbeat batches → master dedup → clock-offset import.
// Worker registry histograms must land in the master registry the same
// way. Runs under -race in CI; leakcheck pins goroutine hygiene.
func TestSpanShippingStitchesWorkerSpans(t *testing.T) {
	defer leakcheck.Check(t)()

	tr := trace.New()
	h, err := StartHarness(HarnessConfig{Workers: 3, Tracer: tr})
	if err != nil {
		t.Fatalf("StartHarness: %v", err)
	}
	defer h.Close()

	c := sumCluster(t, 3, 200)
	c.Distributed = h.Master
	if _, err := c.Run(sumJob(c.FS)); err != nil {
		t.Fatalf("distributed run: %v", err)
	}

	// RunJob waits for every winner's spans (telemetry is imported before
	// completions on each beat), but losing attempts' spans may trail on
	// the next beat — poll briefly for a settled export.
	var taskSpans, shuffleSpans, stitched int
	deadline := time.Now().Add(5 * time.Second)
	for {
		taskSpans, shuffleSpans, stitched = countStitched(t, tr)
		if (taskSpans > 0 && shuffleSpans > 0 && stitched == taskSpans+shuffleSpans) ||
			time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if taskSpans == 0 {
		t.Error("no worker-side task spans in the master trace")
	}
	if shuffleSpans == 0 {
		t.Error("no worker-side shuffle-fetch spans in the master trace")
	}
	if stitched != taskSpans+shuffleSpans {
		t.Errorf("%d of %d worker spans reach a job span via parents",
			stitched, taskSpans+shuffleSpans)
	}

	hists := tr.Registry().HistogramSnapshot()
	for _, name := range []string{HistTaskServiceNS, HistShuffleFetchNS, HistQueueWaitNS, HistStartTaskNS, HistHeartbeatRTTNS} {
		if hv := hists[name]; hv.Count == 0 {
			t.Errorf("histogram %q empty after a distributed run", name)
		}
	}
}

// countStitched exports the tracer and counts worker-side task and
// shuffle spans (those carrying a "worker" arg), plus how many of them
// reach a CatJob span by walking parent_span links.
func countStitched(t *testing.T, tr *trace.Tracer) (taskSpans, shuffleSpans, stitched int) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]*trace.ParsedEvent, len(events))
	for i := range events {
		if id, ok := events[i].Int("span"); ok {
			byID[id] = &events[i]
		}
	}
	reachesJob := func(e *trace.ParsedEvent) bool {
		for hops := 0; e != nil && hops < 16; hops++ {
			if e.Cat == trace.CatJob {
				return true
			}
			p, ok := e.Int("parent_span")
			if !ok {
				return false
			}
			e = byID[p]
		}
		return false
	}
	for i := range events {
		e := &events[i]
		if _, worker := e.Int("worker"); !worker {
			continue
		}
		switch e.Cat {
		case trace.CatTask:
			taskSpans++
		case trace.CatShuffle:
			shuffleSpans++
		default:
			continue
		}
		if reachesJob(e) {
			stitched++
		}
	}
	return taskSpans, shuffleSpans, stitched
}
