package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"ffmr/internal/leakcheck"
)

// gate blocks fake jobs until released, so tests control exactly when
// scheduler slots free up.
type gate struct {
	mu       sync.Mutex
	order    []string
	releases chan struct{}
}

func newGate() *gate { return &gate{releases: make(chan struct{}, 1024)} }

// fakeJob returns a job whose body records its dispatch order under the
// given label and then waits for one gate release.
func (g *gate) fakeJob(tenant, label string, priority int, seq uint64) *job {
	return &job{
		id:       label,
		tenant:   tenant,
		kind:     "fake",
		priority: priority,
		seq:      seq,
		done:     make(chan struct{}),
		run: func() (*JobResult, error) {
			g.mu.Lock()
			g.order = append(g.order, label)
			g.mu.Unlock()
			<-g.releases
			return &JobResult{}, nil
		},
	}
}

func (g *gate) release() { g.releases <- struct{}{} }
func (g *gate) dispatched() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

// waitDispatched spins until n jobs have started running.
func (g *gate) waitDispatched(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(g.dispatched()) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d jobs dispatched, want %d", len(g.dispatched()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitJob(t *testing.T, j *job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never finished", j.id)
	}
}

func TestSchedulerQueueQuota(t *testing.T) {
	defer leakcheck.Check(t)()
	g := newGate()
	s := newScheduler(Quotas{MaxConcurrent: 1, MaxQueuedPerTenant: 2}, nil, nil)

	var jobs []*job
	// One runs, two queue; the fourth must bounce off the quota.
	for i := 0; i < 3; i++ {
		j := g.fakeJob("acme", fmt.Sprintf("a%d", i), 0, uint64(i))
		if err := s.submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
		if i == 0 {
			g.waitDispatched(t, 1) // ensure a0 occupies the slot, not the queue
		}
	}
	err := s.submit(g.fakeJob("acme", "a3", 0, 3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: got %v, want ErrQueueFull", err)
	}
	// Another tenant's quota is independent.
	b := g.fakeJob("bravo", "b0", 0, 10)
	if err := s.submit(b); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	for i := 0; i < 4; i++ {
		g.release()
	}
	for _, j := range jobs {
		waitJob(t, j)
	}
	waitJob(t, b)
	st := s.status()
	if st.Done != 4 || st.Failed != 0 {
		t.Errorf("done=%d failed=%d, want 4/0", st.Done, st.Failed)
	}
	s.close()
}

// slowSink is a slog.Handler that takes a while over every record, as a
// log shipped to a slow disk does.
type slowSink struct{}

func (slowSink) Enabled(context.Context, slog.Level) bool { return true }
func (slowSink) WithAttrs([]slog.Attr) slog.Handler       { return slowSink{} }
func (slowSink) WithGroup(string) slog.Handler            { return slowSink{} }
func (slowSink) Handle(context.Context, slog.Record) error {
	time.Sleep(200 * time.Microsecond)
	return nil
}

// TestSchedulerCountsJobBeforeDone: a tenant that waits for its job and
// then reads the status finds the job counted, done or failed, and no
// longer running. The slow log sink widens any gap between releasing the
// waiter and counting the job.
func TestSchedulerCountsJobBeforeDone(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newScheduler(Quotas{MaxConcurrent: 2}, slog.New(slowSink{}), nil)
	defer s.close()
	for i := 0; i < 20; i++ {
		j := &job{id: fmt.Sprintf("a%d", i), tenant: "acme", kind: "fake", seq: uint64(i), done: make(chan struct{}),
			run: func() (*JobResult, error) {
				if i%2 == 1 {
					return nil, errors.New("injected failure")
				}
				return &JobResult{}, nil
			}}
		if err := s.submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitJob(t, j)
		if st := s.status(); st.Done != i/2+1 || st.Failed != (i+1)/2 || st.Running != 0 {
			t.Fatalf("after job %d: done=%d failed=%d running=%d, want %d/%d/0",
				i, st.Done, st.Failed, st.Running, i/2+1, (i+1)/2)
		}
	}
}

func TestSchedulerFairShareInterleaves(t *testing.T) {
	defer leakcheck.Check(t)()
	g := newGate()
	s := newScheduler(Quotas{MaxConcurrent: 1, MaxQueuedPerTenant: 100}, nil, nil)

	// Tenant A floods first; tenant B arrives after. With one slot and
	// equal weights, WFQ must alternate dispatches rather than draining
	// A's backlog first — B's idle catch-up keeps its vtime level with
	// A's, not behind it.
	hold := g.fakeJob("acme", "hold", 0, 0)
	if err := s.submit(hold); err != nil {
		t.Fatal(err)
	}
	g.waitDispatched(t, 1)
	var all []*job
	for i := 0; i < 4; i++ {
		j := g.fakeJob("acme", fmt.Sprintf("a%d", i), 0, uint64(i+1))
		if err := s.submit(j); err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
	}
	for i := 0; i < 4; i++ {
		j := g.fakeJob("bravo", fmt.Sprintf("b%d", i), 0, uint64(i+10))
		if err := s.submit(j); err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
	}
	for i := 0; i < 9; i++ {
		g.release()
	}
	waitJob(t, hold)
	for _, j := range all {
		waitJob(t, j)
	}
	order := g.dispatched()[1:] // drop the hold job
	// Check strict alternation: at every prefix the two tenants'
	// dispatch counts differ by at most one.
	na, nb := 0, 0
	for i, label := range order {
		if label[0] == 'a' {
			na++
		} else {
			nb++
		}
		if d := na - nb; d < -1 || d > 1 {
			t.Fatalf("unfair dispatch order %v: after %d dispatches acme=%d bravo=%d", order, i+1, na, nb)
		}
	}
	if na != 4 || nb != 4 {
		t.Fatalf("dispatched acme=%d bravo=%d, want 4/4 (order %v)", na, nb, order)
	}
	s.close()
}

func TestSchedulerWeightsSkewDispatch(t *testing.T) {
	defer leakcheck.Check(t)()
	g := newGate()
	s := newScheduler(Quotas{
		MaxConcurrent:      1,
		MaxQueuedPerTenant: 100,
		Weights:            map[string]float64{"heavy": 2},
	}, nil, nil)

	hold := g.fakeJob("heavy", "hold", 0, 0)
	if err := s.submit(hold); err != nil {
		t.Fatal(err)
	}
	g.waitDispatched(t, 1)
	var all []*job
	for i := 0; i < 6; i++ {
		j := g.fakeJob("heavy", fmt.Sprintf("h%d", i), 0, uint64(i+1))
		s.submit(j)
		all = append(all, j)
	}
	for i := 0; i < 3; i++ {
		j := g.fakeJob("light", fmt.Sprintf("l%d", i), 0, uint64(i+10))
		s.submit(j)
		all = append(all, j)
	}
	for i := 0; i < 10; i++ {
		g.release()
	}
	waitJob(t, hold)
	for _, j := range all {
		waitJob(t, j)
	}
	// Weight 2 vs 1: in the first 6 contested dispatches, heavy should
	// get about twice light's share (exact pattern depends on tie-breaks;
	// assert the ratio bound, not the sequence).
	order := g.dispatched()[1:]
	nh := 0
	for _, label := range order[:6] {
		if label[0] == 'h' {
			nh++
		}
	}
	if nh < 3 || nh > 5 {
		t.Fatalf("heavy got %d of first 6 dispatches (order %v), want ~4", nh, order)
	}
	s.close()
}

func TestSchedulerPriorityWithinTenant(t *testing.T) {
	defer leakcheck.Check(t)()
	g := newGate()
	s := newScheduler(Quotas{MaxConcurrent: 1, MaxQueuedPerTenant: 100}, nil, nil)

	hold := g.fakeJob("acme", "hold", 0, 0)
	s.submit(hold)
	g.waitDispatched(t, 1)
	low := g.fakeJob("acme", "low", 0, 1)
	mid := g.fakeJob("acme", "mid", 5, 2)
	high := g.fakeJob("acme", "high", 9, 3)
	for _, j := range []*job{low, mid, high} {
		if err := s.submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		g.release()
	}
	for _, j := range []*job{hold, low, mid, high} {
		waitJob(t, j)
	}
	want := []string{"hold", "high", "mid", "low"}
	got := g.dispatched()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
	s.close()
}

func TestSchedulerPerTenantRunningCap(t *testing.T) {
	defer leakcheck.Check(t)()
	g := newGate()
	s := newScheduler(Quotas{MaxConcurrent: 2, MaxQueuedPerTenant: 100, MaxRunningPerTenant: 1}, nil, nil)

	a0 := g.fakeJob("acme", "a0", 0, 0)
	a1 := g.fakeJob("acme", "a1", 0, 1)
	s.submit(a0)
	s.submit(a1)
	g.waitDispatched(t, 1)
	time.Sleep(10 * time.Millisecond)
	// A second slot is free, but acme is capped at one running job.
	if got := g.dispatched(); len(got) != 1 {
		t.Fatalf("dispatched %v, want only a0 (per-tenant cap)", got)
	}
	// A second tenant takes the free slot immediately.
	b0 := g.fakeJob("bravo", "b0", 0, 2)
	s.submit(b0)
	g.waitDispatched(t, 2)
	for i := 0; i < 3; i++ {
		g.release()
	}
	for _, j := range []*job{a0, a1, b0} {
		waitJob(t, j)
	}
	s.close()
}

func TestSchedulerCloseFailsQueued(t *testing.T) {
	defer leakcheck.Check(t)()
	g := newGate()
	s := newScheduler(Quotas{MaxConcurrent: 1, MaxQueuedPerTenant: 100}, nil, nil)

	running := g.fakeJob("acme", "running", 0, 0)
	queued := g.fakeJob("acme", "queued", 0, 1)
	s.submit(running)
	g.waitDispatched(t, 1)
	s.submit(queued)

	closed := make(chan struct{})
	go func() {
		s.close()
		close(closed)
	}()
	// The queued job fails promptly; the running one is allowed to
	// finish and close() waits for it.
	waitJob(t, queued)
	queued.mu.Lock()
	qerr := queued.err
	queued.mu.Unlock()
	if !errors.Is(qerr, ErrClosed) {
		t.Fatalf("queued job error = %v, want ErrClosed", qerr)
	}
	select {
	case <-closed:
		t.Fatal("close returned while a job was still running")
	case <-time.After(20 * time.Millisecond):
	}
	g.release()
	waitJob(t, running)
	<-closed
	if err := s.submit(g.fakeJob("acme", "late", 0, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}
