package core

import (
	"reflect"
	"sync"
	"testing"

	"ffmr/internal/graph"
)

func newTestAugProc(t *testing.T) *AugProcServer {
	t.Helper()
	s, err := NewAugProcServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func simplePath(id graph.EdgeID, cap int64) graph.ExcessPath {
	return graph.ExcessPath{Edges: []graph.PathEdge{
		{ID: id, From: 0, To: 1, Cap: cap, Fwd: true},
	}}
}

func TestAugProcAcceptsOverRPC(t *testing.T) {
	s := newTestAugProc(t)
	s.BeginRound(0)
	c, err := DialAugProc(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Submit(0, 0, 0, []graph.ExcessPath{simplePath(1, 1), simplePath(2, 1)}); err != nil {
		t.Fatal(err)
	}
	st, deltas := s.EndRound()
	if st.Submitted != 2 || st.Accepted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalDelta != 2 {
		t.Fatalf("total delta = %d", st.TotalDelta)
	}
	if deltas[1] != 1 || deltas[2] != 1 {
		t.Fatalf("deltas = %v", deltas)
	}
}

func TestAugProcRejectsConflicts(t *testing.T) {
	s := newTestAugProc(t)
	s.BeginRound(0)
	c, err := DialAugProc(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two candidates over the same unit-capacity edge: only one wins.
	if err := c.Submit(0, 0, 0, []graph.ExcessPath{simplePath(7, 1), simplePath(7, 1)}); err != nil {
		t.Fatal(err)
	}
	st, _ := s.EndRound()
	if st.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1", st.Accepted)
	}
}

func TestAugProcRoundIsolation(t *testing.T) {
	s := newTestAugProc(t)
	c, err := DialAugProc(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s.BeginRound(0)
	if err := c.Submit(0, 0, 0, []graph.ExcessPath{simplePath(1, 1)}); err != nil {
		t.Fatal(err)
	}
	st1, _ := s.EndRound()
	if st1.Accepted != 1 {
		t.Fatalf("round 1 accepted = %d", st1.Accepted)
	}

	// A new round must reset grants: the same edge is available again.
	s.BeginRound(0)
	if err := c.Submit(0, 0, 0, []graph.ExcessPath{simplePath(1, 1)}); err != nil {
		t.Fatal(err)
	}
	st2, _ := s.EndRound()
	if st2.Accepted != 1 {
		t.Fatalf("round 2 accepted = %d (grants leaked across rounds)", st2.Accepted)
	}
}

func TestAugProcConcurrentClients(t *testing.T) {
	s := newTestAugProc(t)
	s.BeginRound(0)

	const clients = 8
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := DialAugProc(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				id := graph.EdgeID(ci*perClient + i)
				if err := c.Submit(0, 0, 0, []graph.ExcessPath{simplePath(id, 1)}); err != nil {
					errs <- err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	st, deltas := s.EndRound()
	if st.Submitted != clients*perClient {
		t.Fatalf("submitted = %d, want %d", st.Submitted, clients*perClient)
	}
	if st.Accepted != clients*perClient {
		t.Fatalf("accepted = %d, want %d (all edges disjoint)", st.Accepted, clients*perClient)
	}
	if len(deltas) != clients*perClient {
		t.Fatalf("deltas = %d entries", len(deltas))
	}
	if st.MaxQueue < 1 {
		t.Errorf("max queue = %d, want >= 1", st.MaxQueue)
	}
}

func TestAugProcEmptySubmit(t *testing.T) {
	s := newTestAugProc(t)
	s.BeginRound(0)
	c, err := DialAugProc(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Submit(0, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	st, _ := s.EndRound()
	if st.Submitted != 0 {
		t.Fatalf("empty submit counted: %+v", st)
	}
}

// TestAugProcPublishIsRoundFenced pins the FF1 acceptance path: the sink
// reducer's Publish replaces (a retried attempt must not double-count),
// never touches the queue, and — the hole the FF1 collector server had —
// a publish orphaned in an earlier round is acknowledged, counted as
// stale and otherwise ignored.
func TestAugProcPublishIsRoundFenced(t *testing.T) {
	s := newTestAugProc(t)
	c, err := DialAugProc(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s.BeginRound(4)
	want := map[graph.EdgeID]int64{3: 2, 9: -1}
	wantStats := AugProcStats{Submitted: 5, Accepted: 2, TotalDelta: 3}
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.Publish(4, want, wantStats); err != nil {
			t.Fatal(err)
		}
	}
	// A sink reducer of round 3 that outlived its round.
	if err := c.Publish(3, map[graph.EdgeID]int64{3: 100, 7: 100}, AugProcStats{Submitted: 6, Accepted: 6, TotalDelta: 200}); err != nil {
		t.Fatalf("stale publish must be acknowledged, got %v", err)
	}
	if got := s.stale.Load(); got != 6 {
		t.Errorf("stale = %d, want the orphan's 6 candidates", got)
	}
	st, deltas := s.EndRound()
	if st != wantStats {
		t.Errorf("stats = %+v, want %+v (MaxQueue 0: Publish bypasses the queue)", st, wantStats)
	}
	if !reflect.DeepEqual(deltas, want) {
		t.Errorf("deltas = %v, want %v", deltas, want)
	}

	// The next round starts from nothing.
	s.BeginRound(5)
	if st, deltas := s.EndRound(); st != (AugProcStats{}) || len(deltas) != 0 {
		t.Errorf("round 5 inherited %+v %v", st, deltas)
	}
}

func TestAugProcDialFailure(t *testing.T) {
	if _, err := DialAugProc("127.0.0.1:1"); err == nil {
		t.Error("dialing a dead port succeeded")
	}
}
