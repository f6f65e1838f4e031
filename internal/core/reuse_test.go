package core

import (
	"bytes"
	"fmt"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/spill"
)

// This file holds FF4's two proofs. The allocation gates show that the
// record path stops allocating once its scratch is warm; the aliasing
// differential shows that keeping the scratch changes no output byte.

// garbage is what the scribblers leave in every pooled slot.
var (
	garbageHop  = graph.PathEdge{ID: ^graph.EdgeID(0), From: ^graph.VertexID(0), To: ^graph.VertexID(0), Flow: -1 << 40, Cap: -7, Fwd: true}
	garbageEdge = graph.Edge{To: ^graph.VertexID(0), ID: ^graph.EdgeID(0), Flow: 1 << 40, Cap: -7, RevCap: -9, Fwd: true}
)

// scribblePaths overwrites every hop of every slot of ps, used or spare.
func scribblePaths(ps []graph.ExcessPath) {
	ps = ps[:cap(ps)]
	for i := range ps {
		hops := ps[i].Edges[:cap(ps[i].Edges)]
		for j := range hops {
			hops[j] = garbageHop
		}
	}
}

func scribbleValue(v *graph.VertexValue) {
	scribblePaths(v.Su)
	scribblePaths(v.Tu)
	eu := v.Eu[:cap(v.Eu)]
	for i := range eu {
		eu[i] = garbageEdge
	}
	for _, sent := range [][]uint64{v.SentS[:cap(v.SentS)], v.SentT[:cap(v.SentT)]} {
		for i := range sent {
			sent[i] = ^uint64(0)
		}
	}
}

func scribbleBytes(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xff
	}
}

func scribbleAccumulator(a *Accumulator) {
	a.Accept(&graph.ExcessPath{Edges: []graph.PathEdge{{ID: 1 << 30, Cap: 1 << 20, Fwd: true}}}, 1<<20)
}

// scribblingMapper and scribblingReducer trash everything their inner
// mapper or reducer pools, after every call. Whatever the call emitted or
// submitted must not notice.
type scribblingMapper struct{ m *ffMapper }

func (w scribblingMapper) Map(ctx *mapreduce.TaskContext, key, value []byte) error {
	err := w.m.Map(ctx, key, value)
	s := &w.m.s
	scribbleValue(&s.val)
	scribbleValue(&s.frag.Value)
	s.frag.To = ^graph.VertexID(0)
	scribblePaths(s.cands)
	scribbleAccumulator(&s.local)
	scribbleBytes(s.key)
	scribbleBytes(s.buf)
	return err
}

type scribblingReducer struct{ r *ffReducer }

func (w scribblingReducer) Reduce(ctx *mapreduce.TaskContext, key, master []byte, values *mapreduce.Values) error {
	err := w.r.Reduce(ctx, key, master, values)
	s := &w.r.s
	for _, v := range s.vals {
		scribbleValue(v)
	}
	scribbleValue(&s.out)
	scribblePaths(s.cands)
	for _, a := range []*Accumulator{&s.as, &s.at, &s.ap, &s.local} {
		scribbleAccumulator(a)
	}
	s.seenS[0xdeadbeef], s.seenT[0xdeadbeef] = true, true
	scribbleBytes(s.buf)
	return err
}

// Close passes the task's batch on: it is what the calls left behind, not
// scratch, so it is the one thing of the reducer nothing scribbles on.
func (w scribblingReducer) Close(ctx *mapreduce.TaskContext) error { return w.r.Close(ctx) }

// TestReuseDifferential replays every round of an FF4 and an FF5 run
// twice from the reference run's own round files: once with
// feat.reuseObjects forced off, once with it on and the pooled scratch
// scribbled over after every Map and Reduce call. Both replays must
// reproduce the reference round byte for byte — output partitions,
// AugmentedEdges table and counters — so by induction whole runs agree.
func TestReuseDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow; skipped with -short")
	}
	modes := []struct {
		name            string
		reuse, scribble bool
	}{
		{"fresh", false, false},
		{"reuse-scribbled", true, true},
	}
	for _, tc := range diffCases() {
		for _, variant := range []Variant{FF4, FF5} {
			tc, variant := tc, variant
			t.Run(fmt.Sprintf("%s/%s", tc.name, variant), func(t *testing.T) {
				t.Parallel()
				in, err := tc.build(tc.seed)
				if err != nil {
					t.Fatalf("[%s seed=%d] build: %v", tc.name, tc.seed, err)
				}
				cluster := testCluster(3)
				opts := Options{Variant: variant, KeepIntermediate: true, DeterministicAccept: true}
				ref, err := Run(cluster, in, opts)
				if err != nil {
					t.Fatalf("[%s seed=%d] %s: %v", tc.name, tc.seed, variant, err)
				}
				opts = opts.WithDefaults(cluster.Nodes * cluster.SlotsPerNode)
				for _, mode := range modes {
					feat := variant.features()
					feat.reuseObjects = mode.reuse
					for round := 1; round <= ref.Rounds; round++ {
						where := fmt.Sprintf("[%s seed=%d] %s %s round %d", tc.name, tc.seed, variant, mode.name, round)
						replayRound(t, where, cluster, in, opts, feat, mode.scribble, round, ref.RoundStats[round])
					}
				}
			})
		}
	}
}

// replayRound runs one max-flow round over the reference run's round-1
// files into a side prefix and holds the result against the reference.
func replayRound(t *testing.T, where string, cluster *mapreduce.Cluster, in *graph.Input,
	opts Options, feat features, scribble bool, round int, want RoundStat) {
	t.Helper()
	fs := cluster.FS
	cfg := &runConfig{
		opts: opts, feat: feat, source: in.Source, sink: in.Sink,
		deltasFile: deltaName(opts.PathPrefix, round),
	}
	aug, err := NewAugProcServer()
	if err != nil {
		t.Fatal(err)
	}
	defer aug.Close() //nolint:errcheck // shutdown of a loopback listener
	aug.SetDeterministic(true)
	aug.BeginRound(round)
	client, err := DialAugProc(aug.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close() //nolint:errcheck // loopback connection teardown

	base := roundPrefix(opts.PathPrefix, round-1)
	outPrefix := "replay/"
	job := &mapreduce.Job{
		Name:         where,
		Round:        round,
		Inputs:       fs.List(base),
		OutputPrefix: outPrefix,
		NumReducers:  opts.Reducers,
		SideFiles:    []string{cfg.deltasFile},
		Schimmy:      true,
		SchimmyBase:  base,
		Service:      client,
		NewMapper: func() mapreduce.Mapper {
			m := newFFMapper(cfg).(*ffMapper)
			if scribble {
				return scribblingMapper{m}
			}
			return m
		},
		NewReducer: func() mapreduce.Reducer {
			r := newFFReducer(cfg).(*ffReducer)
			if scribble {
				return scribblingReducer{r}
			}
			return r
		},
	}
	res, err := cluster.Run(job)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	st, deltas := aug.EndRound()

	for p := 0; p < opts.Reducers; p++ {
		wantPart, err := fs.ReadFile(mapreduce.PartName(roundPrefix(opts.PathPrefix, round), p))
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		gotPart, err := fs.ReadFile(mapreduce.PartName(outPrefix, p))
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !bytes.Equal(gotPart, wantPart) {
			t.Fatalf("%s: part %d differs from the reference run (%d bytes, want %d)",
				where, p, len(gotPart), len(wantPart))
		}
	}
	wantDeltas, err := fs.ReadFile(deltaName(opts.PathPrefix, round+1))
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if got := EncodeDeltas(deltas); !bytes.Equal(got, wantDeltas) {
		t.Fatalf("%s: AugmentedEdges table differs from the reference run", where)
	}
	got := jobStat(round, res, st)
	// Scheduling decides these three, not the records.
	got.MaxQueue, got.SimTime, got.WallTime = 0, 0, 0
	want.MaxQueue, want.SimTime, want.WallTime = 0, 0, 0
	if got != want {
		t.Fatalf("%s: counters differ from the reference run:\n got %+v\nwant %+v", where, got, want)
	}
}

// TestFeasibleSteadyStateAllocs: the accumulator's own scratch serves
// every Feasible call once it has seen the longest path.
func TestFeasibleSteadyStateAllocs(t *testing.T) {
	var long, short graph.ExcessPath
	for i := 0; i < 40; i++ {
		long.Edges = append(long.Edges, graph.PathEdge{
			ID: graph.EdgeID(i % 30), From: graph.VertexID(i), To: graph.VertexID(i + 1), Cap: 4, Fwd: i < 30,
		})
	}
	short.Edges = long.Edges[3:9]
	var acc Accumulator
	acc.Accept(&long, 1)
	allocs := testing.AllocsPerRun(100, func() {
		acc.Feasible(&long)
		acc.Feasible(&short)
	})
	if allocs != 0 {
		t.Errorf("Feasible: %.0f allocs per call pair, want 0", allocs)
	}
}

// allocProbeMapper measures, for every record of a real map task, what a
// repeat Map call on it allocates.
type allocProbeMapper struct {
	m       mapreduce.Mapper
	records int
	worst   float64
}

func (p *allocProbeMapper) Map(ctx *mapreduce.TaskContext, key, value []byte) error {
	var err error
	// AllocsPerRun's own first call is the warm-up that grows the scratch
	// to this record.
	allocs := testing.AllocsPerRun(10, func() {
		if e := p.m.Map(ctx, key, value); e != nil {
			err = e
		}
	})
	p.records++
	if allocs > p.worst {
		p.worst = allocs
	}
	return err
}

// oneSplit concatenates the records of every file under prefix into one
// map split.
func oneSplit(t *testing.T, fs *dfs.FS, prefix string) []byte {
	t.Helper()
	var split dfs.RecordWriter
	for _, name := range fs.List(prefix) {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		r := dfs.NewRecordReader(data)
		for {
			key, value, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			split.Append(key, value)
		}
	}
	return split.Bytes()
}

// TestFFMapperSteadyStateAllocs runs the FF5 mapper over the round files
// of a real run, inside the real map task body.
func TestFFMapperSteadyStateAllocs(t *testing.T) {
	tc := diffCases()[5] // ba-n120-super-st
	in, err := tc.build(tc.seed)
	if err != nil {
		t.Fatal(err)
	}
	cluster := testCluster(3)
	opts := Options{Variant: FF5, KeepIntermediate: true, DeterministicAccept: true}
	ref, err := Run(cluster, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds < 2 {
		t.Fatalf("reference run took %d rounds, want paths to extend in round 2", ref.Rounds)
	}
	opts = opts.WithDefaults(1)
	const round = 2
	cfg := &runConfig{
		opts: opts, feat: FF5.features(), source: in.Source, sink: in.Sink,
		deltasFile: deltaName(opts.PathPrefix, round),
	}
	side, err := cluster.FS.ReadFile(cfg.deltasFile)
	if err != nil {
		t.Fatal(err)
	}
	split := oneSplit(t, cluster.FS, roundPrefix(opts.PathPrefix, round-1))

	probe := &allocProbeMapper{m: newFFMapper(cfg)}
	env := &mapreduce.TaskEnv{
		Job: "mapper-allocs", Round: round,
		NewMapper: func() mapreduce.Mapper { return probe },
		Side:      map[string][]byte{cfg.deltasFile: side},
		Store:     spill.NewMemRunStore(),
	}
	res, err := mapreduce.ExecMap(env, &mapreduce.MapTask{Split: split, Partitions: 1, Prefix: "m/"},
		mapreduce.NewCounters(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if probe.records != in.NumVertices || res.OutRecs == 0 {
		t.Fatalf("probe saw %d records and %d emissions, want %d records and some fragments",
			probe.records, res.OutRecs, in.NumVertices)
	}
	if probe.worst != 0 {
		t.Errorf("ffMapper.Map (FF5): %.0f allocs on the worst record once warm, want 0", probe.worst)
	}
}

// countingSink is a candidateSink that allocates nothing.
type countingSink struct{ paths int }

func (c *countingSink) send(_, _, _ int, sb *submitBuf) error {
	c.paths += len(sb.args.Paths)
	return nil
}

// candidateTask builds one FF5 reduce task attempt of round 3 over schimmy
// groups of one master record and eight one-path fragments each, every
// group generating one candidate: eight source paths meet one unit-capacity
// sink path. Vertex u has nine edges: one to the sink, carrying its one sink
// excess path, and one to each neighbour that sends it a two-hop source
// excess path this round.
func candidateTask(t *testing.T, groups int, service any) (*mapreduce.TaskEnv, *mapreduce.ReduceTask) {
	t.Helper()
	const (
		source, sink = 0, 1
		fragments    = 8
		round        = 3
	)
	opts := Options{Variant: FF5}.WithDefaults(1)
	cfg := &runConfig{opts: opts, feat: FF5.features(), source: source, sink: sink, deltasFile: "deltas"}

	var base, shuffled dfs.RecordWriter
	edge := graph.EdgeID(0)
	nextEdge := func() graph.EdgeID { edge++; return edge }
	for g := 0; g < groups; g++ {
		u := graph.VertexID(10 + g)
		key := graph.KeyBytes(u)
		toSink := nextEdge()
		master := graph.VertexValue{
			Eu: []graph.Edge{{To: sink, ID: toSink, Cap: 1, RevCap: 1, Fwd: true}},
			Tu: []graph.ExcessPath{{Edges: []graph.PathEdge{{ID: toSink, From: u, To: sink, Cap: 1, Fwd: true}}}},
		}
		for f := 0; f < fragments; f++ {
			nb := graph.VertexID(1_000_000 + g*fragments + f)
			first, second := nextEdge(), nextEdge()
			master.Eu = append(master.Eu, graph.Edge{To: nb, ID: second, Cap: 1, RevCap: 1})
			frag := graph.VertexValue{Su: []graph.ExcessPath{{Edges: []graph.PathEdge{
				{ID: first, From: source, To: nb, Cap: 1, Fwd: true},
				{ID: second, From: nb, To: u, Cap: 1, Fwd: true},
			}}}}
			shuffled.Append(key, graph.EncodeValue(&frag))
		}
		master.SentS = make([]uint64, len(master.Eu))
		master.SentT = make([]uint64, len(master.Eu))
		base.Append(key, graph.EncodeValue(&master))
	}

	env := &mapreduce.TaskEnv{
		Job: "candidates", Round: round,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, key, value []byte) error {
				ctx.Emit(key, value)
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer { return newFFReducer(cfg) },
		Side:       map[string][]byte{cfg.deltasFile: EncodeDeltas(nil)},
		Service:    service,
		Store:      spill.NewMemRunStore(),
	}
	maps, err := mapreduce.ExecMap(env, &mapreduce.MapTask{Split: shuffled.Bytes(), Partitions: 1, Prefix: "m/"},
		mapreduce.NewCounters(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return env, &mapreduce.ReduceTask{Segments: maps.Out.Parts[0], FanIn: 16, TmpPrefix: "r/", Base: base.Bytes()}
}

// TestFFReducerSteadyStateAllocs runs the FF5 reducer, in the real reduce
// task body, over candidateTask's groups. A task with four times the groups
// costs nothing more per group, whether its one batch goes to a sink that
// does not allocate or to a live aug_proc.
func TestFFReducerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool drops a share of what is put
		// back, so the codec's pooled frame buffers are reallocated at random.
		t.Skip("allocation counts of pooled objects are not meaningful under -race")
	}
	aug, err := NewAugProcServer()
	if err != nil {
		t.Fatal(err)
	}
	defer aug.Close() //nolint:errcheck // shutdown of a loopback listener
	aug.BeginRound(3)
	client, err := DialAugProc(aug.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close() //nolint:errcheck // loopback connection teardown

	task := func(groups int, service any) float64 {
		env, reduce := candidateTask(t, groups, service)
		counters := mapreduce.NewCounters()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := mapreduce.ExecReduce(env, reduce, counters, nil); err != nil {
				t.Fatal(err)
			}
		})
		// One candidate per group, over AllocsPerRun's warm-up run and 5
		// measured ones.
		if sent, want := counters.Snapshot()["candidates sent"], int64(6*groups); sent != want {
			t.Fatalf("reducers sent %d candidates, want %d (one per group)", sent, want)
		}
		return allocs
	}

	const small, large = 200, 800
	stub := &countingSink{}
	for _, sink := range []struct {
		name    string
		service any
	}{{"a stub sink", stub}, {"a live aug_proc", client}} {
		perGroup := (task(large, sink.service) - task(small, sink.service)) / (large - small)
		t.Logf("ffReducer.Reduce (FF5, schimmy, 8 fragments) into %s: %.3f allocs per group", sink.name, perGroup)
		// What is left is the task's own slices (base records, merge heap,
		// output, candidate batch) doubling a few more times for four times
		// the groups.
		if perGroup >= 0.05 {
			t.Errorf("ffReducer.Reduce into %s: %.3f allocs per group once warm, want under 0.05 (nothing per group)",
				sink.name, perGroup)
		}
	}
	if want := 6 * (small + large); stub.paths != want {
		t.Fatalf("the stub sink saw %d candidates, want %d", stub.paths, want)
	}
}
