package trace

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(CatRun, "nothing", nil)
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	sp.SetInt("x", 1)
	sp.SetStr("y", "z")
	sp.SetTID(3)
	sp.End()
	if _, ok := sp.Int("x"); ok {
		t.Fatal("nil span returned an attr")
	}
	if sp.Duration() != 0 || sp.Name() != "" || sp.Cat() != "" {
		t.Fatal("nil span has state")
	}
	reg := tr.Registry()
	reg.Counter("c").Add(5)
	reg.Gauge("g").Set(5)
	if reg.Counter("c").Value() != 0 || reg.Gauge("g").Max() != 0 {
		t.Fatal("nil registry recorded values")
	}
}

func TestSpanHierarchyAndAttrs(t *testing.T) {
	tr := New()
	run := tr.Start(CatRun, "run", nil)
	round := tr.Start(CatRound, "round-1", run)
	round.SetInt(AttrRound, 1)
	round.SetInt(AttrAPaths, 7)
	round.SetInt(AttrAPaths, 9) // overwrite
	round.SetStr("variant", "FF5")
	round.End()
	run.End()

	if v, ok := round.Int(AttrAPaths); !ok || v != 9 {
		t.Fatalf("a_paths = %d, %v", v, ok)
	}
	if v, ok := round.Int(AttrRound); !ok || v != 1 {
		t.Fatalf("round = %d, %v", v, ok)
	}
	if round.Name() != "round-1" || round.Cat() != CatRound {
		t.Fatalf("round span = %s/%s", round.Cat(), round.Name())
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter("hits").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits").Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
	g := reg.Gauge("depth")
	g.Set(3)
	g.Set(10)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 10 {
		t.Fatalf("gauge = %d max %d", g.Value(), g.Max())
	}
	g.Reset()
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatal("reset did not clear gauge")
	}
	if reg.Counter("hits") != reg.Counter("hits") {
		t.Fatal("counter handles not interned")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := New()
	run := tr.Start(CatRun, "run", nil)
	round := tr.Start(CatRound, "round-1", run)
	round.SetInt(AttrRound, 1)
	round.SetInt(AttrShuffleBytes, 4096)
	round.SetStr("variant", "FF3")
	time.Sleep(time.Millisecond)
	round.End()
	run.End()
	tr.Registry().Counter("source move").Add(12)
	tr.Registry().Gauge("augproc queue depth").Set(5)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var foundRound, foundCounter, foundGauge bool
	for _, e := range events {
		switch {
		case e.Cat == CatRound && e.Name == "round-1":
			foundRound = true
			if v, ok := e.Int(AttrShuffleBytes); !ok || v != 4096 {
				t.Fatalf("shuffle arg = %d, %v", v, ok)
			}
			if e.Args["variant"] != "FF3" {
				t.Fatalf("variant arg = %v", e.Args["variant"])
			}
			if e.Dur <= 0 {
				t.Fatal("round span has no duration")
			}
		case e.Cat == "counter" && e.Name == "source move":
			foundCounter = true
			if v, _ := e.Int("value"); v != 12 {
				t.Fatalf("counter value = %d", v)
			}
		case e.Cat == "gauge" && e.Name == "augproc queue depth":
			foundGauge = true
			if v, _ := e.Int("max"); v != 5 {
				t.Fatalf("gauge max = %d", v)
			}
		}
	}
	if !foundRound || !foundCounter || !foundGauge {
		t.Fatalf("missing events: round=%v counter=%v gauge=%v", foundRound, foundCounter, foundGauge)
	}
}

func TestConcurrentSpanUse(t *testing.T) {
	tr := New()
	run := tr.Start(CatRun, "run", nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.Start(CatTask, "task", run)
			sp.SetInt("task", int64(i))
			sp.SetTID(int64(i%4) + 2)
			sp.End()
		}(i)
	}
	wg.Wait()
	run.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tasks := 0
	for _, e := range events {
		if e.Cat == CatTask {
			tasks++
		}
	}
	if tasks != 16 {
		t.Fatalf("exported %d task spans, want 16", tasks)
	}
}

// TestRegistryConcurrentUse hammers one Registry from writer goroutines
// (lazily creating counters and gauges, the driver side) while reader
// goroutines snapshot it (the admin /metrics scraper side). Run under
// -race this proves live scraping never needs to pause the cluster.
func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	const writers, readers, rounds = 8, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"shared hits", "per-writer hits " + string(rune('a'+w))}
			for i := 0; i < rounds; i++ {
				for _, n := range names {
					reg.Counter(n).Add(1)
				}
				g := reg.Gauge("depth " + string(rune('a'+w)))
				g.Set(int64(i))
				if i%50 == 0 {
					g.Reset()
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cs := reg.CounterSnapshot()
				if v := cs["shared hits"]; v > writers*rounds {
					t.Errorf("snapshot over-counts: shared hits = %d", v)
					return
				}
				for _, gv := range reg.GaugeSnapshot() {
					if gv.Last < 0 || gv.Max < 0 {
						t.Errorf("impossible gauge snapshot: %+v", gv)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.CounterSnapshot()["shared hits"]; got != writers*rounds {
		t.Fatalf("shared hits = %d, want %d", got, writers*rounds)
	}
}
