package pregel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"ffmr/internal/graph"
)

func plainVertices(n int) []*Vertex {
	vertices := make([]*Vertex, n)
	for i := range vertices {
		vertices[i] = &Vertex{ID: graph.VertexID(i)}
	}
	return vertices
}

// pingPong runs an engine of n vertices in which everyone halts in
// superstep 0 except that vertices 0..7 start a ball each, bounced
// between i and i+8 until superstep `last`. It returns the Compute calls
// of every superstep and the heap objects allocated per superstep between
// supersteps 50 and 150.
func pingPong(t *testing.T, n, last int) (calls []int64, allocsPerStep float64) {
	t.Helper()
	const players = 8
	var computed atomic.Int64
	var m0, m1 runtime.MemStats
	master := func(superstep int, _ [][]byte, _ map[string]int64) ([]byte, error) {
		calls = append(calls, computed.Swap(0))
		switch superstep {
		case 50:
			runtime.ReadMemStats(&m0)
		case 150:
			runtime.ReadMemStats(&m1)
		}
		return nil, nil
	}
	prog := programFunc(func(ctx *Context, v *Vertex, messages [][]byte) error {
		computed.Add(1)
		switch {
		case ctx.Superstep() == 0 && v.ID < players:
			ctx.SendTo(v.ID+players, []byte("ball"))
		case ctx.Superstep() > 0 && ctx.Superstep() < last:
			if len(messages) != 1 || string(messages[0]) != "ball" {
				return fmt.Errorf("vertex %d woke with mail %q", v.ID, messages)
			}
			peer := v.ID + players
			if v.ID >= players {
				peer = v.ID - players
			}
			ctx.SendTo(peer, messages[0])
		}
		ctx.VoteToHalt()
		return nil
	})
	engine, err := NewEngine(Config{Master: master}, plainVertices(n))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := engine.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != last+1 {
		t.Fatalf("ran %d supersteps, want %d", stats.Supersteps, last+1)
	}
	for s, active := range stats.ActiveVertices {
		if active != calls[s] {
			t.Fatalf("superstep %d: Stats.ActiveVertices %d, Compute calls %d", s, active, calls[s])
		}
	}
	return calls, float64(m1.Mallocs-m0.Mallocs) / 100
}

// TestSuperstepCostTracksActiveSet: a superstep costs what its active
// vertices and messages cost, not what the graph is large.
func TestSuperstepCostTracksActiveSet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const last = 200
	calls, small := pingPong(t, 20_000, last)
	if calls[0] != 20_000 {
		t.Errorf("superstep 0 computed %d vertices, want all 20000", calls[0])
	}
	for s := 1; s <= last; s++ {
		if calls[s] != 8 {
			t.Fatalf("superstep %d computed %d vertices, want the 8 with mail", s, calls[s])
		}
	}
	_, large := pingPong(t, 80_000, last)
	t.Logf("allocations per steady-state superstep: %.1f at 20000 vertices, %.1f at 80000", small, large)
	// What a superstep allocates is per worker goroutine and per barrier
	// (some 30 objects), whatever the vertex count.
	const bound = 64
	if small > bound || large > bound {
		t.Errorf("a steady-state superstep allocates %.1f objects at 20000 vertices and %.1f at 80000, want at most %d at either size",
			small, large, bound)
	}
}

// TestMessageToUnknownVertexIsDropped: mail for an ID the engine has no
// vertex for is counted and dropped — below, between and above the IDs a
// worker owns — and never lands on a neighbouring vertex.
func TestMessageToUnknownVertexIsDropped(t *testing.T) {
	// With 2 workers, worker 0 owns 10, 20 and 40.
	vertices := []*Vertex{{ID: 10}, {ID: 20}, {ID: 40}, {ID: 11}}
	got := map[graph.VertexID]string{}
	prog := programFunc(func(ctx *Context, v *Vertex, messages [][]byte) error {
		if ctx.Superstep() == 0 && v.ID == 11 {
			for _, dst := range []graph.VertexID{2, 10, 12, 20, 30, 30, 40, 50, 51} {
				ctx.SendTo(dst, []byte(fmt.Sprint("for ", dst)))
			}
		}
		for _, m := range messages {
			got[v.ID] += string(m) // only worker 0 owns a vertex that gets mail
		}
		ctx.VoteToHalt()
		return nil
	})
	engine, err := NewEngine(Config{Workers: 2}, vertices)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := engine.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := map[graph.VertexID]string{10: "for 10", 20: "for 20", 40: "for 40"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if stats.Messages != 9 || stats.Undelivered != 6 {
		t.Errorf("messages %d undelivered %d, want 9 and 6", stats.Messages, stats.Undelivered)
	}
	if stats.Supersteps != 2 || stats.ActiveVertices[1] != 3 {
		t.Errorf("supersteps %d, active %v: want 2 supersteps, 3 vertices woken in the second",
			stats.Supersteps, stats.ActiveVertices)
	}
}
