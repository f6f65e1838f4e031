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
// (A-Paths), the maximum aug_proc queue length (MaxQ), the number of
// intermediate records emitted by mappers (Map Out), the bytes shuffled
// between map and reduce (Shuffle), and the round's runtime.
type RoundStat struct {
	Round int

	// APaths is the number of augmenting paths accepted this round.
	APaths int64
	// Submitted is the number of candidate augmenting paths offered.
	Submitted int64
	// MaxQueue is the largest aug_proc queue length observed (0 for FF1
	// and for round 0).
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
	// Rounds is the number of max-flow rounds executed, excluding the
	// round #0 graph conversion (matching how the paper counts rounds).
	Rounds int
	// Converged reports whether the termination rule fired before
	// Options.MaxRounds.
	Converged bool
	// RoundStats has one entry per executed round; index 0 is round #0.
	RoundStats []RoundStat

	TotalSimTime  time.Duration
	TotalWallTime time.Duration

	// InputGraphBytes is the converted graph's size in the DFS after
	// round #0 (the paper's "Size" column); MaxGraphBytes is the largest
	// per-round graph size observed (the "Max Size" column), which grows
	// as vertices accumulate excess paths.
	InputGraphBytes int64
	MaxGraphBytes   int64

	// RunSpan is the run's trace span when Options.Tracer was set (nil
	// otherwise). trace.RoundSummariesUnder(RunSpan) yields the same
	// per-round metrics as RoundStats — for rounds executed by this
	// invocation; rounds replayed from a resume checkpoint predate the
	// tracer and appear only in RoundStats.
	RunSpan *trace.Span
}

func roundPrefix(prefix string, round int) string {
	return fmt.Sprintf("%sround-%05d/", prefix, round)
}

func deltaName(prefix string, round int) string {
	return fmt.Sprintf("%sdeltas-%05d", prefix, round)
}

// Run executes the FFMR algorithm selected by opts on the given cluster,
// implementing the multi-round main program of Fig. 2. The input graph
// is written to the DFS, converted by round #0, and processed by
// max-flow rounds until the termination rule fires.
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
	feat := opts.Variant.features()
	fs := cluster.FS
	prefix := opts.PathPrefix

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
	runSpan := tr.Start(trace.CatRun, fmt.Sprintf("ffmr-%s", opts.Variant), nil)
	runSpan.SetStr("variant", opts.Variant.String())
	result := &Result{Variant: opts.Variant, RunSpan: runSpan}
	defer func() {
		runSpan.SetInt("max_flow", result.MaxFlow)
		runSpan.SetInt("rounds", int64(result.Rounds))
		runSpan.End()
	}()

	startRound := 1

	if opts.Resume && fs.Exists(checkpointName(prefix)) {
		cp, err := readCheckpoint(fs, prefix)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		if cp.Variant != opts.Variant || cp.Reducers != opts.Reducers {
			return nil, fmt.Errorf("core: resume: checkpoint is %s with %d reducers, run is %s with %d",
				cp.Variant, cp.Reducers, opts.Variant, opts.Reducers)
		}
		result.MaxFlow = cp.MaxFlow
		result.Rounds = cp.Round
		result.RoundStats = cp.Stats
		result.Converged = cp.Converged
		for _, s := range cp.Stats {
			if s.Round == 0 {
				result.InputGraphBytes = s.OutputBytes
			}
			if s.OutputBytes > result.MaxGraphBytes {
				result.MaxGraphBytes = s.OutputBytes
			}
		}
		if cp.Converged {
			for i := range result.RoundStats {
				result.TotalSimTime += result.RoundStats[i].SimTime
				result.TotalWallTime += result.RoundStats[i].WallTime
			}
			return result, nil
		}
		startRound = cp.Round + 1
		if !fs.Exists(deltaName(prefix, startRound)) {
			return nil, fmt.Errorf("core: resume: AugmentedEdges file for round %d is missing", startRound)
		}
	} else {
		fs.DeletePrefix(prefix)

		inputs, err := WriteInput(fs, prefix, in, cluster.Nodes*2)
		if err != nil {
			return nil, err
		}

		// Round #0: convert the edge list into vertex records.
		round0Span := tr.Start(trace.CatRound, "round-00000", runSpan)
		job0 := &mapreduce.Job{
			Name:         "ffmr-round-0-convert",
			Round:        0,
			Inputs:       inputs,
			OutputPrefix: roundPrefix(prefix, 0),
			NumReducers:  opts.Reducers,
			Parent:       round0Span,
			NewMapper:    newConvertMapper,
			NewReducer: func() mapreduce.Reducer {
				return &convertReducer{
					source:        in.Source,
					sink:          in.Sink,
					bidirectional: !opts.DisableBidirectional,
					sentTracking:  feat.sentTracking,
				}
			},
			Spec: &mapreduce.JobSpec{Kind: KindFFConvert, Params: (&ffConvertParams{
				Source:        in.Source,
				Sink:          in.Sink,
				Bidirectional: !opts.DisableBidirectional,
				SentTracking:  feat.sentTracking,
			}).append(nil)},
		}
		res0, err := cluster.Run(job0)
		if err != nil {
			round0Span.End()
			return nil, err
		}
		stat0 := jobStat(0, res0, AugProcStats{})
		annotateRoundSpan(round0Span, stat0)
		round0Span.End()
		result.RoundStats = append(result.RoundStats, stat0)
		result.InputGraphBytes = res0.OutputBytes
		result.MaxGraphBytes = res0.OutputBytes

		// The first max-flow round sees an empty AugmentedEdges table.
		if err := fs.WriteFile(deltaName(prefix, 1), EncodeDeltas(nil)); err != nil {
			return nil, err
		}
		if err := writeCheckpoint(fs, prefix, &checkpoint{
			Variant: opts.Variant, Reducers: opts.Reducers, Round: 0,
			Stats: result.RoundStats,
		}); err != nil {
			return nil, err
		}
	}

	loop := &ffLoop{
		cluster: cluster, in: in, opts: opts, feat: feat,
		prefix: prefix, tr: tr, runSpan: runSpan, result: result,
	}
	if err := loop.run(startRound); err != nil {
		return nil, err
	}

	for i := range result.RoundStats {
		result.TotalSimTime += result.RoundStats[i].SimTime
		result.TotalWallTime += result.RoundStats[i].WallTime
	}
	if !result.Converged {
		return result, fmt.Errorf("core: %s did not converge within %d rounds", opts.Variant, opts.MaxRounds)
	}
	return result, nil
}

// ffLoop is the multi-round max-flow loop shared by the cold driver (Run)
// and the warm-restart driver (RunWarm). It owns the per-round job
// construction, acceptance collection, delta broadcasting, checkpointing
// and the termination rule; the two entry points differ only in how the
// round-0 state comes to exist and in which termination signal is sound.
type ffLoop struct {
	cluster *mapreduce.Cluster
	in      *graph.Input
	opts    Options
	feat    features
	prefix  string
	tr      *trace.Tracer
	runSpan *trace.Span
	result  *Result

	// warmBase, when non-empty, is the DFS prefix of the records consumed
	// by the first executed round instead of roundPrefix(prefix,
	// startRound-1): warm restarts read state produced outside the
	// round-NNNNN chain (by the dynamic-update apply/drain jobs).
	warmBase string
	// warm switches the termination rule to the warm-restart one; see
	// run. Cold runs must keep the paper's source/sink-move rule
	// byte-identical, so this is never inferred.
	warm bool
}

func (l *ffLoop) run(startRound int) error {
	opts, feat, prefix := l.opts, l.feat, l.prefix
	fs := l.cluster.FS
	result := l.result
	log := obsv.Or(opts.Log).With("run", fmt.Sprintf("ffmr-%s", opts.Variant))
	// Live progress gauges/counters: published to the tracer's registry
	// as each round completes, so /metrics and the watch dashboard track
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
	aug.SetDeterministic(opts.DeterministicAccept)
	defer aug.Close() //nolint:errcheck // shutdown of a loopback listener

	for round := startRound; round <= opts.MaxRounds; round++ {
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
		if round == startRound && l.warmBase != "" {
			basePrefix = l.warmBase
		}
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
			"shuffle_bytes", stat.ShuffleBytes, "sim", stat.SimTime)
		if opts.RoundCallback != nil {
			opts.RoundCallback(stat)
		}
		if res.OutputBytes > result.MaxGraphBytes {
			result.MaxGraphBytes = res.OutputBytes
		}

		if !opts.KeepIntermediate && round >= 2 {
			fs.DeletePrefix(roundPrefix(prefix, round-2))
			fs.Delete(deltaName(prefix, round-1))
		}

		if l.warm {
			// Warm termination. A warm restart starts from records already
			// holding excess paths, so the movement counters of Fig. 4 —
			// which fire only on a vertex's 0 -> nonzero path transition —
			// can read zero while extensions are still propagating through
			// vertices that merely *grew* their path sets. Stopping on them
			// would abandon in-flight augmentation. Instead the loop stops
			// at a fixpoint: no vertex added any excess path this round and
			// no augmenting path was accepted. The next round would then
			// see an empty AugmentedEdges table and byte-identical records,
			// so no future round can ever make progress.
			if res.Counter("source paths added")+res.Counter("sink paths added") == 0 &&
				st.Accepted == 0 {
				result.Converged = true
			}
		} else {
			// Termination (Fig. 2 line 10): stop once either search is
			// quiescent. The strict rule also requires the round to have
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
				if quiescent {
					result.Converged = true
				}
			case TerminationStrict:
				if quiescent && st.Accepted == 0 {
					result.Converged = true
				}
			}
		}
		if err := writeCheckpoint(fs, prefix, &checkpoint{
			Variant: opts.Variant, Reducers: opts.Reducers, Round: round,
			MaxFlow: result.MaxFlow, Converged: result.Converged,
			Stats: result.RoundStats,
		}); err != nil {
			return err
		}
		if result.Converged {
			break
		}
	}
	log.Info("run done", "max_flow", result.MaxFlow,
		"rounds", result.Rounds, "converged", result.Converged)
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
// records for a run configured with KeepIntermediate (used by tests and
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
