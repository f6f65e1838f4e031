package core

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/trace"
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
	if st.MaxQueue != clients*perClient {
		t.Errorf("max queue = %d, want %d (every path held)", st.MaxQueue, clients*perClient)
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
// holds nothing for the round-end decision, and — the hole the FF1
// collector server had — a publish orphaned in an earlier round is
// acknowledged, counted as stale and otherwise ignored.
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
	st.DrainWait = 0 // measured, not published
	if st != wantStats {
		t.Errorf("stats = %+v, want %+v (MaxQueue 0: Publish holds nothing)", st, wantStats)
	}
	if !reflect.DeepEqual(deltas, want) {
		t.Errorf("deltas = %v, want %v", deltas, want)
	}

	// The next round starts from nothing.
	s.BeginRound(5)
	st, deltas = s.EndRound()
	st.DrainWait = 0
	if st != (AugProcStats{}) || len(deltas) != 0 {
		t.Errorf("round 5 inherited %+v %v", st, deltas)
	}
}

func TestAugProcDialFailure(t *testing.T) {
	if _, err := DialAugProc("127.0.0.1:1"); err == nil {
		t.Error("dialing a dead port succeeded")
	}
}

// TestOneBatchPerReduceTask: an FF2+ reduce task submits its candidates
// when it closes, so a run registers at most one batch per reduce task and
// round where it used to register one per submitting group — and the
// candidates aug_proc sees and accepts each round are the ones it saw
// before, recorded here from a run at the per-group commit under the
// quiescent stopping rule (the default rule stops one round earlier; see
// TestStopAtMaximumIsPrefix).
func TestOneBatchPerReduceTask(t *testing.T) {
	tc := diffCases()[5] // ba-n120-super-st
	in, err := tc.build(tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	const reducers = 12
	tr := trace.New()
	res, err := Run(testCluster(3), in, Options{Variant: FF5, Reducers: reducers, Tracer: tr, Termination: TerminationQuiescent})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ submitted, accepted int64 }{{0, 0}, {0, 0}, {6, 6}, {70, 10}, {44, 2}, {0, 0}}
	if len(res.RoundStats) != len(want) {
		t.Fatalf("run took %d rounds, want %d", len(res.RoundStats)-1, len(want)-1)
	}
	for r, rs := range res.RoundStats {
		if rs.Submitted != want[r].submitted || rs.APaths != want[r].accepted {
			t.Errorf("round %d: %d submitted, %d accepted, want %d and %d",
				r, rs.Submitted, rs.APaths, want[r].submitted, want[r].accepted)
		}
	}
	// 104 at the per-group commit.
	if got := tr.Registry().Counter(MetricAugBatches).Value(); got == 0 || got > int64(reducers*res.Rounds) {
		t.Errorf("%d batches over %d rounds of %d reduce tasks, want at most one per task and round",
			got, res.Rounds, reducers)
	}
}

// recordingSink is a candidateSink that keeps a copy of every batch.
type recordingSink struct{ batches []augBatch }

func (r *recordingSink) send(_, task, exec int, sb *submitBuf) error {
	b := augBatch{task: task, exec: exec}
	for _, p := range sb.args.Paths {
		b.paths = append(b.paths, bytes.Clone(p))
	}
	r.batches = append(r.batches, b)
	return nil
}

// dyingReducer fails its attempt after a number of groups.
type dyingReducer struct {
	mapreduce.Reducer
	left int
	err  error
}

func (d *dyingReducer) Reduce(ctx *mapreduce.TaskContext, key, master []byte, values *mapreduce.Values) error {
	if d.left--; d.left < 0 {
		return d.err
	}
	return d.Reducer.Reduce(ctx, key, master, values)
}

// TestEarlyFlushSurvivesReexecution: a task holding more than
// submitFlushBytes of candidates sends them in several batches under its
// one (task, exec), so an execution that dies has already submitted a
// prefix; with the re-execution's complete sequence beside it, the
// round-end dedup must keep exactly the complete one.
func TestEarlyFlushSurvivesReexecution(t *testing.T) {
	const groups = 24000 // at some 30 bytes a candidate, at least two full batches and a rest
	sink := &recordingSink{}
	env, task := candidateTask(t, groups, sink)
	task.Task = 4
	flat := func(batches []augBatch) (paths [][]byte) {
		for _, b := range batches {
			if b.task != task.Task || b.exec != task.Exec {
				t.Fatalf("batch tagged (%d, %d) by execution (%d, %d)", b.task, b.exec, task.Task, task.Exec)
			}
			paths = append(paths, b.paths...)
		}
		return paths
	}
	samePaths := func(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

	boom := errors.New("boom")
	dying := *env
	dying.NewReducer = func() mapreduce.Reducer {
		return &dyingReducer{Reducer: env.NewReducer(), left: groups * 2 / 3, err: boom}
	}
	if _, err := mapreduce.ExecReduce(&dying, task, mapreduce.NewCounters(), nil); !errors.Is(err, boom) {
		t.Fatalf("interrupted execution: %v", err)
	}
	interrupted := sink.batches
	prefix := flat(interrupted)
	if len(prefix) == 0 || len(prefix) >= groups*2/3 {
		t.Fatalf("the interrupted execution submitted %d of the %d candidates it generated, want the flushed part",
			len(prefix), groups*2/3)
	}

	sink.batches, task.Exec = nil, 1
	if _, err := mapreduce.ExecReduce(env, task, mapreduce.NewCounters(), nil); err != nil {
		t.Fatal(err)
	}
	complete := sink.batches
	all := flat(complete)
	if len(complete) < 3 || len(all) != groups {
		t.Fatalf("the complete execution sent %d candidates in %d batches, want %d in several", len(all), len(complete), groups)
	}
	for i, b := range complete[:len(complete)-1] {
		size := 0
		for _, p := range b.paths {
			size += len(p)
		}
		if size < submitFlushBytes || size-len(b.paths[len(b.paths)-1]) >= submitFlushBytes {
			t.Errorf("batch %d holds %d bytes, want the first candidate to reach %d to have sent it", i, size, submitFlushBytes)
		}
	}
	if !samePaths(prefix, all[:len(prefix)]) {
		t.Fatal("the interrupted execution's candidates are not a prefix of the complete execution's")
	}

	want := slices.Clone(all)
	slices.SortFunc(want, bytes.Compare)
	for name, pending := range map[string][]augBatch{
		"interrupted first": append(slices.Clone(interrupted), complete...),
		"complete first":    append(slices.Clone(complete), interrupted...),
	} {
		if got := dedupePending(pending); !samePaths(got, want) {
			t.Errorf("%s: dedupePending kept %d candidates, want the complete execution's %d in byte order",
				name, len(got), len(want))
		}
	}
}

// TestAugProcBatchSteadyStateAllocs: what a batch costs the server — the
// frame decode, holding it, the round-end decision — does not grow with
// the number of paths in it. It measures whole rounds of sixteen 1 000-path
// batches, one per reduce task, so the round's own few objects (the
// dedup's output, the AugmentedEdges table) are in the count too.
func TestAugProcBatchSteadyStateAllocs(t *testing.T) {
	const tasks, paths = 16, 1000
	args := SubmitArgs{Round: 1, Exec: 3}
	for i := 0; i < paths; i++ {
		// Ten edges shared by a hundred candidates each: ten are accepted.
		p := graph.ExcessPath{Edges: []graph.PathEdge{
			{ID: graph.EdgeID(100 + i), From: 0, To: graph.VertexID(10 + i), Cap: 1, Fwd: true},
			{ID: graph.EdgeID(i % 10), From: graph.VertexID(10 + i), To: 1, Cap: 1, Fwd: true},
		}}
		args.Paths = append(args.Paths, graph.EncodePath(&p))
	}
	var frames [tasks][]byte
	for task := range frames {
		args.Task = task
		frames[task] = args.AppendFrame(nil)
	}
	s := newTestAugProc(t)
	svc := &augProcService{s: s}
	round := func() {
		s.BeginRound(1)
		for _, frame := range frames {
			var in SubmitArgs
			if err := in.DecodeFrame(frame); err != nil {
				t.Fatal(err)
			}
			if err := svc.Submit(&in, nil); err != nil {
				t.Fatal(err)
			}
		}
		if st, _ := s.EndRound(); st.Submitted != tasks*paths || st.Accepted != 10 {
			t.Fatalf("%d submitted, %d accepted, want %d and 10", st.Submitted, st.Accepted, tasks*paths)
		}
	}
	perPath := testing.AllocsPerRun(20, round) / (tasks * paths)
	t.Logf("aug_proc: %.4f allocs per path in %d-path batches", perPath, paths)
	if perPath >= 0.01 {
		t.Errorf("aug_proc: %.4f allocs per path once warm, want under 0.01 (nothing per path)", perPath)
	}
}

// orderBatch is one Submit call of TestAugProcOrderIndependent.
type orderBatch struct {
	task, exec int
	paths      []graph.ExcessPath
}

// TestAugProcOrderIndependent: the round's outcome does not depend on the
// order its batches arrive in. The round holds two tasks whose candidates
// conflict on a unit-capacity edge, and a task whose first execution died
// after an early flush beside its complete re-execution. Two fixed orders,
// each submitted sequentially on one connection and concurrently from one
// client per execution, must yield the same stats and deltas.
func TestAugProcOrderIndependent(t *testing.T) {
	hop := func(id graph.EdgeID, from, to graph.VertexID) graph.PathEdge {
		return graph.PathEdge{ID: id, From: from, To: to, Cap: 1, Fwd: true}
	}
	path := func(edges ...graph.PathEdge) graph.ExcessPath { return graph.ExcessPath{Edges: edges} }
	// Tasks 0 and 1 both want edge 7; whichever wins also carries its own
	// first hop, so the winner shows in the deltas.
	t0 := path(hop(1, 0, 2), hop(7, 2, 9))
	t1 := path(hop(2, 0, 3), hop(7, 3, 9))
	// Task 2 holds three candidates, two of them over edge 8. Its first
	// execution flushed the first two and died; its second sent all three.
	// Both copies counted would count edge 8's loser twice.
	a, b, c := path(hop(3, 0, 4), hop(8, 4, 9)), path(hop(4, 0, 5), hop(8, 5, 9)), path(hop(5, 0, 6), hop(6, 6, 9))
	batches := []orderBatch{
		{task: 0, exec: 0, paths: []graph.ExcessPath{t0}},
		{task: 1, exec: 0, paths: []graph.ExcessPath{t1}},
		{task: 2, exec: 0, paths: []graph.ExcessPath{a, b}},
		{task: 2, exec: 1, paths: []graph.ExcessPath{a, b}},
		{task: 2, exec: 1, paths: []graph.ExcessPath{c}},
	}
	orders := map[string][]int{
		"forward": {0, 1, 2, 3, 4},
		"reverse": {3, 4, 1, 2, 0},
	}

	s := newTestAugProc(t)
	type outcome struct {
		st     AugProcStats
		deltas map[graph.EdgeID]int64
	}
	runRound := func(submit func(order []int) error, order []int) outcome {
		s.BeginRound(1)
		if err := submit(order); err != nil {
			t.Fatal(err)
		}
		st, deltas := s.EndRound()
		st.DrainWait = 0
		return outcome{st, deltas}
	}
	sequential := func(order []int) error {
		c, err := DialAugProc(s.Addr())
		if err != nil {
			return err
		}
		defer c.Close()
		for _, i := range order {
			b := batches[i]
			if err := c.Submit(1, b.task, b.exec, b.paths); err != nil {
				return err
			}
		}
		return nil
	}
	// concurrent gives each execution its own client, which sends that
	// execution's batches in the order's sequence.
	concurrent := func(order []int) error {
		perExec := map[[2]int][]int{}
		for _, i := range order {
			key := [2]int{batches[i].task, batches[i].exec}
			perExec[key] = append(perExec[key], i)
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(perExec))
		for _, idx := range perExec {
			wg.Add(1)
			go func(idx []int) {
				defer wg.Done()
				errs <- sequential(idx)
			}(idx)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	var first *outcome
	var firstName string
	for _, name := range []string{"forward", "reverse"} {
		for mode, submit := range map[string]func([]int) error{"sequential": sequential, "concurrent": concurrent} {
			got := runRound(submit, orders[name])
			label := name + "/" + mode
			if first == nil {
				first, firstName = &got, label
				continue
			}
			if got.st != first.st || !reflect.DeepEqual(got.deltas, first.deltas) {
				t.Errorf("%s: stats %+v deltas %v; %s: stats %+v deltas %v",
					label, got.st, got.deltas, firstName, first.st, first.deltas)
			}
		}
	}
	// One of each conflicting pair wins, and task 2 counts once.
	want := AugProcStats{Submitted: 5, Accepted: 3, TotalDelta: 3, MaxQueue: 7}
	if first.st != want {
		t.Errorf("stats = %+v, want %+v", first.st, want)
	}
}

// TestDrainWaitIsTheDecision: the round span's aug_drain_wait_us is the
// time EndRound spent deciding, so every round that held a candidate shows
// one, and the rounds add up to the registry counter.
func TestDrainWaitIsTheDecision(t *testing.T) {
	in, err := graphgen.BarabasiAlbert(1000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	tr := trace.New()
	res, err := Run(testCluster(3), in, Options{Variant: FF5, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sumUS, rounds, submitting int64
	for i := range events {
		e := &events[i]
		wait, ok := e.Int(trace.AttrAugDrainWaitUS)
		if e.Cat != trace.CatRound || !ok {
			continue
		}
		rounds++
		sumUS += wait
		submitted, _ := e.Int(trace.AttrSubmitted)
		t.Logf("%s: %d candidates, drain wait %d µs", e.Name, submitted, wait)
		if submitted > 0 {
			submitting++
			if wait <= 0 {
				t.Errorf("%s held %d candidates but shows no drain wait", e.Name, submitted)
			}
		}
	}
	if rounds != int64(res.Rounds) || submitting == 0 {
		t.Fatalf("%d round spans carry a drain wait, %d of them with candidates, over %d rounds",
			rounds, submitting, res.Rounds)
	}
	// Each round's span truncates its wait to whole microseconds.
	ns := tr.Registry().Counter(MetricAugDrainWaitNS).Value()
	if ns < sumUS*1000 || ns >= (sumUS+rounds)*1000 {
		t.Errorf("registry drain wait %d ns, round spans sum to %d µs over %d rounds", ns, sumUS, rounds)
	}
	if n := tr.Registry().HistogramSnapshot()[HistAugAcceptNS].Count; n != rounds {
		t.Errorf("accept histogram observed %d rounds, want %d", n, rounds)
	}
}
