package core

import (
	"fmt"
	"time"

	"ffmr/internal/dfs"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/obsv"
	"ffmr/internal/trace"
)

// RoundStat captures one round of execution. The fields correspond to
// the columns of the paper's Table I: accepted augmenting paths
// (A-Paths), the paths aug_proc held for its round-end decision (MaxQ),
// the number of intermediate records emitted by mappers (Map Out), the
// bytes shuffled between map and reduce (Shuffle), and the round's
// runtime. Round 0 runs no job: the driver writes its records, so its
// stat holds only OutputBytes, the DFS write's modelled SimTime and the
// write's WallTime.
type RoundStat struct {
	Round int

	// APaths is the number of augmenting paths accepted this round.
	APaths int64
	// Submitted is the number of candidate augmenting paths offered.
	Submitted int64
	// MaxQueue is the number of paths aug_proc held for its round-end
	// decision (0 for FF1 and for round 0).
	MaxQueue int64
	// FlowDelta is the flow value added by this round's accepted paths.
	FlowDelta int64

	SourceMove int64
	SinkMove   int64
	// ActiveVertices counts vertices holding at least one excess path at
	// the round's end — the paper's available-parallelism measure.
	ActiveVertices int64

	MapOutRecords  int64
	MapOutBytes    int64
	ShuffleBytes   int64
	MaxRecordBytes int64
	// MaxGroupBytes is the largest reduce group of the round — the
	// paper's "size of the biggest record": in FF1 the sink vertex's
	// group holds every candidate augmenting path.
	MaxGroupBytes int64
	OutputBytes   int64

	SimTime  time.Duration
	WallTime time.Duration
}

// Result is the outcome of an FFMR run.
type Result struct {
	Variant Variant
	// MaxFlow is the computed maximum flow value.
	MaxFlow int64
	// Rounds is the number of max-flow rounds executed, excluding round #0,
	// which writes the first vertex records (matching how the paper counts
	// rounds).
	Rounds int
	// Converged reports whether the termination rule fired before
	// Options.MaxRounds.
	Converged bool
	// Flows is the final flow on every input edge: Flows[i] is the flow
	// on in.Edges[i] in canonical U -> V orientation, negative for flow
	// V -> U on an undirected edge. Deltas a run left pending in the
	// AugmentedEdges file of the round after its last are already included.
	Flows []int64
	// RoundStats has one entry per executed round; index 0 is round #0.
	RoundStats []RoundStat

	TotalSimTime  time.Duration
	TotalWallTime time.Duration

	// InputGraphBytes is the size of the vertex records round #0 writes
	// (the paper's "Size" column); MaxGraphBytes is the largest
	// per-round graph size observed (the "Max Size" column), which grows
	// as vertices accumulate excess paths.
	InputGraphBytes int64
	MaxGraphBytes   int64

	// RunSpan is the run's trace span when Options.Tracer was set (nil
	// otherwise). Its round spans carry RoundStats' values as attributes.
	RunSpan *trace.Span
}

func roundPrefix(prefix string, round int) string {
	return fmt.Sprintf("%sround-%05d/", prefix, round)
}

func deltaName(prefix string, round int) string {
	return fmt.Sprintf("%sdeltas-%05d", prefix, round)
}

// Run executes the FFMR algorithm selected by opts on the given cluster,
// implementing the multi-round main program of Fig. 2. Round #0 is the
// driver writing the input's vertex records to the DFS itself: the paper
// runs a conversion job there because Hadoop's input lives in HDFS, but
// here the input is already in memory. Max-flow rounds then run until the
// termination rule fires.
func Run(cluster *mapreduce.Cluster, in *graph.Input, opts Options) (*Result, error) {
	opts.applyDefaults(cluster.Nodes * cluster.SlotsPerNode)
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if res, handled, err := dispatchEngine(cluster, in, opts); handled {
		return res, err
	}
	return run(cluster, in, opts, nil)
}

// run is the body Run and RunWarm share; warm is nil for a cold run. The
// two differ only in the round #0 writeRoundZero writes.
func run(cluster *mapreduce.Cluster, in *graph.Input, opts Options, warm *WarmStart) (*Result, error) {
	feat := opts.Variant.features()
	prefix := opts.PathPrefix
	label := opts.Variant.String()
	if warm != nil {
		label += "-warm"
	}

	tr := opts.Tracer
	if tr != nil {
		// Job/phase/task spans of every round nest under this run.
		cluster.Tracer = tr
	}
	if opts.Log != nil {
		cluster.Log = opts.Log
	}
	log := obsv.Or(opts.Log).With("run", fmt.Sprintf("ffmr-%s", opts.Variant))
	log.Info("run start", "variant", opts.Variant.String(),
		"reducers", opts.Reducers, "max_rounds", opts.MaxRounds,
		"distributed", cluster.Distributed != nil)
	runSpan := tr.Start(trace.CatRun, "ffmr-"+label, nil)
	runSpan.SetStr("variant", opts.Variant.String())
	result := &Result{Variant: opts.Variant, RunSpan: runSpan}
	defer func() {
		runSpan.SetInt("max_flow", result.MaxFlow)
		runSpan.SetInt("rounds", int64(result.Rounds))
		runSpan.End()
	}()

	loop := &ffLoop{
		cluster: cluster, in: in, opts: opts, feat: feat,
		prefix: prefix, tr: tr, runSpan: runSpan, result: result,
		warm: warm != nil,
	}
	if warm != nil {
		runSpan.SetInt(trace.AttrWarm, 1)
	}
	round0Span := tr.Start(trace.CatRound, "round-00000", runSpan)
	err := loop.writeRoundZero(round0Span, warm)
	if err == nil && opts.Termination == TerminationMaximal {
		// The starting flow is already maximum when no s-t path remains in
		// its residual network; the run then executes no round. The check
		// times itself on round #0's span.
		loop.cert = newResidualGraph(in)
		result.Converged, err = loop.certify(round0Span)
	}
	round0Span.End()
	if err != nil {
		return nil, err
	}

	if err := loop.run(); err != nil {
		return nil, err
	}

	for i := range result.RoundStats {
		result.TotalSimTime += result.RoundStats[i].SimTime
		result.TotalWallTime += result.RoundStats[i].WallTime
	}
	if !result.Converged {
		return result, fmt.Errorf("core: %s did not converge within %d rounds", label, opts.MaxRounds)
	}
	return result, nil
}

// writeRoundZero is round #0: the driver writes the first vertex records
// and the empty AugmentedEdges table the first max-flow round reads. A
// cold run starts from the zero flow with seeded source and sink records.
// A warm restart starts from warm.Flows, whose value is the source's net
// outflow, and its records carry the excess paths of the records under
// warm.Base, refreshed against the input and warm.Flows.
func (l *ffLoop) writeRoundZero(sp *trace.Span, warm *WarmStart) error {
	t0 := time.Now()
	var flows []int64
	var base []graph.VertexValue
	if warm != nil {
		flows = warm.Flows
		var err error
		if base, err = readBase(l.cluster.FS, l.in, warm.Base); err != nil {
			return err
		}
		for i := range l.in.Edges {
			switch l.in.Source {
			case l.in.Edges[i].U:
				l.result.MaxFlow += flows[i]
			case l.in.Edges[i].V:
				l.result.MaxFlow -= flows[i]
			}
		}
		if err := CheckAssignment(l.in, flows, l.result.MaxFlow); err != nil {
			return fmt.Errorf("core: warm restart: %w", err)
		}
	}
	// The base is read first: it may lie under the run's prefix.
	l.cluster.FS.DeletePrefix(l.prefix)
	if err := writeState(l.cluster.FS, l.in, l.opts, 0, flows, base); err != nil {
		return err
	}
	stat0 := hostRoundStat(l.cluster, l.cluster.FS.TotalSize(roundPrefix(l.prefix, 0)), time.Since(t0))
	annotateRoundSpan(sp, stat0)
	l.result.RoundStats = append(l.result.RoundStats, stat0)
	l.result.InputGraphBytes = stat0.OutputBytes
	l.result.MaxGraphBytes = stat0.OutputBytes
	if flows == nil {
		flows = make([]int64, len(l.in.Edges))
	}
	l.result.Flows = flows
	return nil
}

// ffLoop is the multi-round max-flow loop of a run (see run). It owns the
// per-round job construction, acceptance collection, delta broadcasting
// and the termination rule.
type ffLoop struct {
	cluster *mapreduce.Cluster
	in      *graph.Input
	opts    Options
	feat    features
	prefix  string
	tr      *trace.Tracer
	runSpan *trace.Span
	result  *Result

	// warm marks a warm restart (RunWarm), whose stall check counts added
	// paths instead of movement; see ffLoop.run. Cold runs keep the paper's
	// source/sink-move rule, so this is never inferred.
	warm bool

	// cert is the residual graph the maximality check of
	// TerminationMaximal searches (nil under the other rules) for
	// result.Flows, the sum of every accepted delta.
	cert *residualGraph
}

// certify runs the maximality check on the flow accepted so far and
// records its duration on the round span sp. It reports whether the flow
// is maximum; a maximum flow whose minimum cut does not have the run's
// flow value means the flow vector and the accepted deltas disagree,
// which is an internal error.
func (l *ffLoop) certify(sp *trace.Span) (bool, error) {
	t0 := time.Now()
	reachable := l.cert.sinkReachable(l.result.Flows)
	var cut int64
	if !reachable {
		cut = l.cert.cutCapacity()
	}
	sp.SetInt(trace.AttrCertifyUS, time.Since(t0).Microseconds())
	if !reachable && cut != l.result.MaxFlow {
		return false, fmt.Errorf("core: internal error: no residual augmenting path remains, but the minimum cut has capacity %d, not the flow value %d",
			cut, l.result.MaxFlow)
	}
	return !reachable, nil
}

func (l *ffLoop) run() error {
	opts, feat, prefix := l.opts, l.feat, l.prefix
	fs := l.cluster.FS
	result := l.result
	log := obsv.Or(opts.Log).With("run", fmt.Sprintf("ffmr-%s", opts.Variant))
	// Live progress gauges/counters: published to the tracer's registry
	// as each round completes, so /metrics scrapes track
	// the run in flight (nil-safe when no tracer is configured).
	reg := l.tr.Registry()

	// aug_proc is the acceptance service of every variant: FF2+ reducers
	// submit candidates to it, the FF1 sink reducer publishes its outcome.
	aug, err := NewAugProcServer()
	if err != nil {
		return err
	}
	aug.SetTracer(l.tr)
	aug.SetLogger(opts.Log)
	defer aug.Close() //nolint:errcheck // shutdown of a loopback listener

	for round := 1; round <= opts.MaxRounds && !result.Converged; round++ {
		roundSpan := l.tr.Start(trace.CatRound, fmt.Sprintf("round-%05d", round), l.runSpan)
		cfg := &runConfig{
			opts:       opts,
			feat:       feat,
			source:     l.in.Source,
			sink:       l.in.Sink,
			deltasFile: deltaName(prefix, round),
		}

		aug.BeginRound(round)
		client, err := DialAugProc(aug.Addr())
		if err != nil {
			roundSpan.End()
			return err
		}

		basePrefix := roundPrefix(prefix, round-1)
		job := &mapreduce.Job{
			Name:         fmt.Sprintf("ffmr-%s-round-%d", opts.Variant, round),
			Round:        round,
			Inputs:       fs.List(basePrefix),
			OutputPrefix: roundPrefix(prefix, round),
			NumReducers:  opts.Reducers,
			SideFiles:    []string{cfg.deltasFile},
			Schimmy:      feat.schimmy,
			SchimmyBase:  basePrefix,
			Service:      client,
			Parent:       roundSpan,
			NewMapper:    func() mapreduce.Mapper { return newFFMapper(cfg) },
			NewReducer:   func() mapreduce.Reducer { return newFFReducer(cfg) },
		}
		if opts.UseCombiner {
			job.NewCombiner = newFFCombiner
		}
		job.Spec = &mapreduce.JobSpec{Kind: KindFFRound, Params: (&ffRoundParams{
			Variant:     opts.Variant,
			K:           opts.K,
			Source:      l.in.Source,
			Sink:        l.in.Sink,
			DeltasFile:  cfg.deltasFile,
			UseCombiner: opts.UseCombiner,
			ServiceAddr: aug.Addr(),
		}).append(nil)}
		res, err := l.cluster.Run(job)
		client.Close() //nolint:errcheck // loopback connection teardown
		if err != nil {
			roundSpan.End()
			return err
		}

		st, deltas := aug.EndRound()
		result.MaxFlow += st.TotalDelta
		result.Rounds = round

		if err := fs.WriteFile(deltaName(prefix, round+1), EncodeDeltas(deltas)); err != nil {
			roundSpan.End()
			return err
		}

		stat := jobStat(round, res, st)
		annotateRoundSpan(roundSpan, stat)
		// Not a RoundStat field: RoundStats are compared between runs, and
		// this is a timing.
		roundSpan.SetInt(trace.AttrAugDrainWaitUS, st.DrainWait.Microseconds())
		for id, d := range deltas {
			result.Flows[id] += d
		}
		if l.cert != nil && st.Accepted > 0 {
			if result.Converged, err = l.certify(roundSpan); err != nil {
				roundSpan.End()
				return err
			}
		}
		roundSpan.End()
		result.RoundStats = append(result.RoundStats, stat)
		reg.Gauge(trace.GaugeFFRound).Set(int64(round))
		reg.Gauge(trace.GaugeFFMaxFlow).Set(result.MaxFlow)
		reg.Gauge(trace.GaugeFFActive).Set(stat.ActiveVertices)
		reg.Counter(trace.CounterFFAPaths).Add(stat.APaths)
		reg.Counter(trace.CounterFFSubmitted).Add(stat.Submitted)
		reg.Counter(trace.CounterFFRounds).Add(1)
		log.Info("round done", "round", round,
			"a_paths", stat.APaths, "flow_delta", stat.FlowDelta,
			"max_flow", result.MaxFlow, "active", stat.ActiveVertices,
			"map_out_records", stat.MapOutRecords, "shuffle_bytes", stat.ShuffleBytes,
			"sim", stat.SimTime)
		if opts.RoundCallback != nil {
			opts.RoundCallback(stat)
		}
		if res.OutputBytes > result.MaxGraphBytes {
			result.MaxGraphBytes = res.OutputBytes
		}

		if !opts.KeepIntermediate {
			// The next round reads only this round's records and the deltas
			// just written, so this round's inputs go now.
			fs.DeletePrefix(basePrefix)
			fs.Delete(cfg.deltasFile)
		}

		if l.warm {
			// A warm restart stops only by the certificate. Its records
			// already hold excess paths, so the movement counters of Fig. 4,
			// which fire only on a vertex's 0 -> nonzero path transition, can
			// read zero while extensions still propagate; the stall test is
			// a fixpoint instead. When no vertex added an excess path and
			// nothing was accepted, the next round sees an empty
			// AugmentedEdges table and the records this round wrote, so no
			// later round can make progress: a residual path the searches
			// cannot reach, or a delta the flow vector lost.
			if res.Counter("source paths added")+res.Counter("sink paths added") == 0 &&
				st.Accepted == 0 {
				return fmt.Errorf("core: internal error: warm round %d added no excess path and accepted nothing, but a residual augmenting path remains at flow value %d",
					round, result.MaxFlow)
			}
		} else {
			// Termination (Fig. 2 line 10): stop once either search is
			// quiescent. The quiescent rule also requires the round to have
			// accepted nothing, so it never stops mid-progress and leaves no
			// unapplied flow deltas. With bi-directional search disabled the
			// sink never moves, so only the source counter is consulted.
			som := res.Counter("source move")
			sim := res.Counter("sink move")
			quiescent := som == 0 || sim == 0
			if opts.DisableBidirectional {
				quiescent = som == 0
			}
			switch opts.Termination {
			case TerminationPaper:
				result.Converged = quiescent
			case TerminationQuiescent:
				result.Converged = quiescent && st.Accepted == 0
			case TerminationMaximal:
				// The quiescent rule would stop here, yet the check after the
				// last accepting round found a residual s-t path: the searches
				// lost a path or the flow vector lost a delta.
				if quiescent && st.Accepted == 0 {
					return fmt.Errorf("core: internal error: round %d is quiescent and accepted nothing, but a residual augmenting path remains at flow value %d",
						round, result.MaxFlow)
				}
			}
		}
	}
	stop := opts.Termination.String()
	if !result.Converged {
		stop = "max-rounds"
	}
	l.runSpan.SetStr(trace.AttrStop, stop)
	log.Info("run done", "max_flow", result.MaxFlow,
		"rounds", result.Rounds, "converged", result.Converged, "stop", stop)
	return nil
}

// annotateRoundSpan writes a round's Table I metrics onto its trace
// span. The stats tables and the exported trace file are both derived
// from these values, so they can never disagree.
func annotateRoundSpan(sp *trace.Span, rs RoundStat) {
	sp.SetInt(trace.AttrRound, int64(rs.Round))
	sp.SetInt(trace.AttrAPaths, rs.APaths)
	sp.SetInt(trace.AttrSubmitted, rs.Submitted)
	sp.SetInt(trace.AttrMaxQueue, rs.MaxQueue)
	sp.SetInt(trace.AttrFlowDelta, rs.FlowDelta)
	sp.SetInt(trace.AttrSourceMove, rs.SourceMove)
	sp.SetInt(trace.AttrSinkMove, rs.SinkMove)
	sp.SetInt(trace.AttrActiveVertices, rs.ActiveVertices)
	sp.SetInt(trace.AttrMapOutRecords, rs.MapOutRecords)
	sp.SetInt(trace.AttrMapOutBytes, rs.MapOutBytes)
	sp.SetInt(trace.AttrShuffleBytes, rs.ShuffleBytes)
	sp.SetInt(trace.AttrMaxRecordBytes, rs.MaxRecordBytes)
	sp.SetInt(trace.AttrMaxGroupBytes, rs.MaxGroupBytes)
	sp.SetInt(trace.AttrOutputBytes, rs.OutputBytes)
	sp.SetInt(trace.AttrSimTimeUS, rs.SimTime.Microseconds())
}

// hostRoundStat is the stat of a round the driver writes itself, as it
// does round #0: no job runs, so every record and shuffle count is 0 and
// the only modelled charge is writing the round's bytes to the DFS.
func hostRoundStat(cluster *mapreduce.Cluster, bytes int64, wall time.Duration) RoundStat {
	return RoundStat{OutputBytes: bytes, SimTime: cluster.DFSWriteTime(bytes), WallTime: wall}
}

func jobStat(round int, res *mapreduce.Result, st AugProcStats) RoundStat {
	return RoundStat{
		Round:          round,
		APaths:         st.Accepted,
		Submitted:      st.Submitted,
		MaxQueue:       st.MaxQueue,
		FlowDelta:      st.TotalDelta,
		SourceMove:     res.Counter("source move"),
		SinkMove:       res.Counter("sink move"),
		ActiveVertices: res.Counter("active vertices"),
		MapOutRecords:  res.MapOutputRecords,
		MapOutBytes:    res.MapOutputBytes,
		ShuffleBytes:   res.ShuffleBytes,
		MaxRecordBytes: res.MaxRecordBytes,
		MaxGroupBytes:  res.MaxGroupBytes,
		OutputBytes:    res.OutputBytes,
		SimTime:        res.SimTime,
		WallTime:       res.WallTime,
	}
}

// FinalGraphPrefix returns the DFS prefix of the last round's vertex
// records, which every finished run leaves in the DFS (used by tests and
// tools to inspect the final residual network).
func FinalGraphPrefix(opts Options, rounds int) string {
	prefix := opts.PathPrefix
	if prefix == "" {
		prefix = "ffmr/"
	}
	return roundPrefix(prefix, rounds)
}

// ReadVertices decodes every vertex record under a round prefix,
// returning a map from vertex ID to its value. Intended for validation
// and tooling, not for the data path.
func ReadVertices(fsys interface {
	List(prefix string) []string
	ReadFile(name string) ([]byte, error)
}, prefix string) (map[graph.VertexID]*graph.VertexValue, error) {
	out := make(map[graph.VertexID]*graph.VertexValue)
	for _, name := range fsys.List(prefix) {
		data, err := fsys.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if err := decodeVertexFile(data, out); err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
	}
	return out, nil
}

func decodeVertexFile(data []byte, out map[graph.VertexID]*graph.VertexValue) error {
	r := dfs.NewRecordReader(data)
	for {
		key, value, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		u, err := graph.DecodeKey(key)
		if err != nil {
			return err
		}
		v, err := graph.DecodeValue(value)
		if err != nil {
			return err
		}
		out[u] = v
	}
}
