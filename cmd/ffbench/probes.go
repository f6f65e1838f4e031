package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"os"
	"path"
	"runtime"
	"sync"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/mapreduce"
	"ffmr/internal/portfolio"
	"ffmr/internal/prflow"
	"ffmr/internal/rpcutil"
	"ffmr/internal/spill"
	"ffmr/internal/trace"
)

// measureLayers is the --trace 1 run: a warm-up solve that keeps its
// round files (the probe corpus), untraced solves for the baseline, one
// traced solve whose spans and counters become the per-layer counts and
// buckets, then the probes that time each layer's public functions on
// the corpus. It returns the trace as Chrome JSON for the caller to
// write out.
func (r *runner) measureLayers(seed int64, seconds float64) (metrics, []byte, error) {
	r.tr = trace.New()
	r.root = r.tr.Start(catBench, "workload "+r.w.name, nil)
	opts := r.options()

	sp := r.span("setup")
	if err := r.setUp(seed, nil); err != nil {
		return nil, nil, err
	}
	keep := opts
	keep.KeepIntermediate = true
	_, keepCluster, err := r.solve(keep)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	corp, err := readCorpus(keepCluster.FS, r.sc.probeDiv)
	if err != nil {
		return nil, nil, err
	}

	var base []float64
	start := time.Now()
	for len(base) < r.sc.minSolves || time.Since(start).Seconds() < seconds/2 {
		sp := r.span(fmt.Sprintf("solve-%02d", len(base)))
		s, _, _, err := r.timedSolve(opts)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		base = append(base, s["solve_wall_s"])
	}

	if r.w.dist {
		// The baseline ran on an untraced harness; the traced solve and
		// the distmr probes get one that ships worker spans to r.tr.
		r.tearDown()
		if err := r.startBackend(r.tr); err != nil {
			return nil, nil, err
		}
	}
	traced := opts
	traced.Tracer = r.tr
	sp = r.span("traced-solve")
	s, res, cluster, err := r.timedSolve(traced)
	sp.End()
	if err != nil {
		return nil, nil, err
	}

	m := metrics{}
	if err := r.traceMetrics(m, res, cluster.FS.Stats(), s["solve_wall_s"], median(base)); err != nil {
		return nil, nil, err
	}
	for _, p := range probes {
		if !p.on(r.w) {
			continue
		}
		sp := r.span("probe." + p.module)
		err := p.run(r, corp, m)
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", p.module, err)
		}
	}
	if r.w.grid {
		m.set("portfolio.probe_share", m["portfolio.probe_s"].Value/median(base))
	}
	m.fillZeros(perLayer)

	r.root.End()
	var buf bytes.Buffer
	if err := r.tr.WriteChromeTrace(&buf); err != nil {
		return nil, nil, err
	}
	return m, buf.Bytes(), nil
}

// traceMetrics derives the counts, buckets and latency means of the
// traced solve from what the program already exposes: RoundStats, the
// DFS statistics, the tracer's registry, and trace.Analyze run on the
// exported Chrome JSON (the same bytes `ffmr -analyze` reads).
func (r *runner) traceMetrics(m metrics, res *core.Result, fsStats dfs.Stats, tracedWall, baseWall float64) error {
	var buf bytes.Buffer
	if err := r.tr.WriteChromeTrace(&buf); err != nil {
		return err
	}
	events, err := trace.ParseChromeTrace(buf.Bytes())
	if err != nil {
		return err
	}
	rep, err := trace.Analyze(events)
	if err != nil {
		return err
	}

	var jobs, benchSpans, mergeSegments, spillUS, mergeUS int64
	for i := range events {
		e := &events[i]
		switch e.Cat {
		case catBench:
			benchSpans++
		case trace.CatJob:
			jobs++
		case trace.CatSpill:
			spillUS += e.Dur
		case trace.CatMerge:
			mergeUS += e.Dur
			n, _ := e.Int("segments")
			mergeSegments += n
		}
	}
	var roundUS int64
	for i := range rep.Rounds {
		roundUS += rep.Rounds[i].WallUS
	}
	bucket := func(name string) float64 { return float64(rep.BucketUS[name]) / 1e6 }

	m.set("trace.spans", float64(int64(rep.Spans)-benchSpans))
	m.set("trace.overhead_frac", tracedWall/baseWall-1)
	m.set("trace.unattributed_frac", 1-float64(roundUS)/1e6/tracedWall)

	m.set("dfs.bytes_written", float64(fsStats.BytesWritten))
	m.set("dfs.bytes_read", float64(fsStats.BytesRead))
	m.set("dfs.files_created", float64(fsStats.FilesCreated))

	m.set("mapreduce.jobs", float64(jobs))
	m.set("mapreduce.map_bucket_s", bucket(trace.BucketMap))
	m.set("mapreduce.reduce_bucket_s", bucket(trace.BucketReduce))
	m.set("mapreduce.idle_bucket_s", bucket(trace.BucketIdle))

	reg := r.tr.Registry()
	counters := reg.CounterSnapshot()
	hists := reg.HistogramSnapshot()
	histMS := func(name string) float64 { return float64(hists[name].Mean()) / 1e6 }

	m.set("spill.spills", float64(counters[trace.CounterSpills]))
	m.set("spill.spilled_mb", float64(counters[trace.CounterSpilledBytes])/1e6)
	m.set("spill.merge_passes", float64(counters[trace.CounterMergePasses]))
	m.set("spill.merge_segments", float64(mergeSegments))
	m.set("spill.spill_span_s", float64(spillUS)/1e6)
	m.set("spill.merge_span_s", float64(mergeUS)/1e6)

	if r.w.dist {
		m.set("distmr.tasks", float64(hists[distmr.HistTaskServiceNS].Count))
		m.set("distmr.start_task_rpc_ms_mean", histMS(distmr.HistStartTaskNS))
		m.set("distmr.queue_wait_ms_mean", histMS(distmr.HistQueueWaitNS))
		m.set("distmr.task_service_ms_mean", histMS(distmr.HistTaskServiceNS))
		m.set("distmr.shuffle_fetches", float64(hists[distmr.HistShuffleFetchNS].Count))
		m.set("distmr.shuffle_fetch_ms_mean", histMS(distmr.HistShuffleFetchNS))
		m.set("distmr.rpc_bucket_s", bucket(trace.BucketRPC))
		m.set("distmr.shuffle_bucket_s", bucket(trace.BucketShuffle))
		m.set("distmr.worker_spans", float64(rep.WorkerSpans))
		m.set("distmr.reassignments", float64(counters[distmr.CounterReassigns]))
		m.set("distmr.backups", float64(counters[distmr.CounterBackups]))
	}

	var mapOut, shuffle, submitted, accepted int64
	var roundMS []float64
	for i := range res.RoundStats {
		rs := &res.RoundStats[i]
		mapOut += rs.MapOutRecords
		shuffle += rs.ShuffleBytes
		submitted += rs.Submitted
		accepted += rs.APaths
		if i > 0 {
			roundMS = append(roundMS, float64(rs.WallTime.Microseconds())/1e3)
		}
	}
	m.set("mapreduce.map_out_records", float64(mapOut))
	m.set("core.shuffle_mb", float64(shuffle)/1e6)
	if !r.w.grid {
		m.set("core.round0_s", res.RoundStats[0].WallTime.Seconds())
		m.set("core.round_wall_ms_median", median(roundMS))
		m.set("core.augproc_batches", float64(counters[core.MetricAugBatches]))
		m.set("core.submitted_paths", float64(submitted))
		m.set("core.accepted_paths", float64(accepted))
		if submitted > 0 {
			m.set("core.accept_ratio", float64(accepted)/float64(submitted))
		}
		m.set("core.augproc_accept_ns_mean", float64(hists[core.HistAugAcceptNS].Mean()))
	}
	return nil
}

// corpus is the workload-derived data the probes replay: the vertex
// records of the largest round a KeepIntermediate solve left in the DFS.
type corpus struct {
	keys, vals [][]byte
	// decoded are the vals as vertex values.
	decoded []*graph.VertexValue
	// file is the records in SequenceFile framing, as one DFS file.
	file []byte
	// paths are the excess paths stored in the records.
	paths []graph.ExcessPath
}

func (c *corpus) mb() float64 { return float64(len(c.file)) / 1e6 }

// readCorpus reads back the largest round-NNNNN/ directory under the
// default path prefix, keeping one record in div.
func readCorpus(fs *dfs.FS, div int) (*corpus, error) {
	sizes := map[string]int64{}
	for _, name := range fs.List("ffmr/round-") {
		size, err := fs.Size(name)
		if err != nil {
			return nil, err
		}
		sizes[path.Dir(name)] += size
	}
	var dir string
	for d, size := range sizes {
		if size > sizes[dir] || (size == sizes[dir] && d < dir) {
			dir = d
		}
	}
	if dir == "" {
		return nil, fmt.Errorf("corpus: the solve left no round files in the DFS")
	}
	c := &corpus{}
	seen := 0
	for _, name := range fs.List(dir + "/") {
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for off := 0; off < len(data); {
			key, val, next, err := spill.ReadFrame(data, off)
			if err != nil {
				return nil, fmt.Errorf("corpus: %s: %w", name, err)
			}
			off = next
			if seen++; seen%div != 0 {
				continue
			}
			c.keys = append(c.keys, key)
			c.vals = append(c.vals, val)
			c.file = spill.AppendFrame(c.file, key, val)
			vv, err := graph.DecodeValue(val)
			if err != nil {
				return nil, fmt.Errorf("corpus: %s: %w", name, err)
			}
			c.decoded = append(c.decoded, vv)
			c.paths = append(c.paths, vv.Su...)
			c.paths = append(c.paths, vv.Tu...)
		}
	}
	if len(c.keys) == 0 {
		return nil, fmt.Errorf("corpus: %s holds no records", dir)
	}
	return c, nil
}

// probe times one layer's public functions from outside.
type probe struct {
	module string
	// on says whether the layer is on the workload's path; where it is
	// not, the probe is skipped and its metrics read 0.
	on  func(*workload) bool
	run func(*runner, *corpus, metrics) error
}

func onCrawl(w *workload) bool { return !w.grid }
func onAll(*workload) bool     { return true }

var probes = []probe{
	{module: "graph", on: onCrawl, run: probeGraph},
	{module: "dfs", on: onAll, run: probeDFS},
	{module: "mapreduce", on: onAll, run: probeMapReduce},
	{module: "spill", on: onCrawl, run: probeSpill},
	{module: "distmr", on: func(w *workload) bool { return w.dist }, run: probeDistMR},
	{module: "rpcutil", on: onCrawl, run: probeRPC},
	{module: "core", on: onCrawl, run: probeCore},
	{module: "portfolio", on: func(w *workload) bool { return w.grid }, run: probePortfolio},
	{module: "prflow", on: func(w *workload) bool { return w.grid }, run: probePRFlow},
}

// reps scales a probe's repeat count down at smoke scale.
func (r *runner) reps(n int) int { return max(n/r.sc.probeDiv, 1) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeGraph runs the corpus through the vertex codec with reuse, the
// way FF4+ mappers and reducers do.
func probeGraph(r *runner, c *corpus, m metrics) error {
	n := float64(len(c.vals))
	var vv graph.VertexValue
	var buf []byte
	var dec, enc []float64
	var decAllocs float64
	for pass := 0; pass < r.reps(9); pass++ {
		a0 := mallocs()
		t0 := time.Now()
		for _, v := range c.vals {
			vv.Reset()
			if err := graph.DecodeValueInto(v, &vv); err != nil {
				return err
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/n)
		decAllocs = float64(mallocs()-a0) / n
		t0 = time.Now()
		for _, d := range c.decoded {
			buf = graph.AppendValue(buf[:0], d)
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/n)
	}
	m.set("graph.records", n)
	m.set("graph.rec_bytes_mean", float64(len(c.file))/n)
	m.setSamples("graph.decode_ns_per_rec", dec)
	m.setSamples("graph.encode_ns_per_rec", enc)
	m.set("graph.decode_allocs_per_rec", decAllocs)
	return nil
}

// probeDFS times whole-file writes and reads of the corpus file.
func probeDFS(r *runner, c *corpus, m metrics) error {
	fs := plainCluster().FS
	var wr, rd []float64
	for i := 0; i < r.reps(9); i++ {
		t0 := time.Now()
		if err := fs.WriteFile("probe/corpus", c.file); err != nil {
			return err
		}
		wr = append(wr, c.mb()/time.Since(t0).Seconds())
		t0 = time.Now()
		data, err := fs.ReadFile("probe/corpus")
		if err != nil {
			return err
		}
		rd = append(rd, c.mb()/time.Since(t0).Seconds())
		if len(data) != len(c.file) {
			return fmt.Errorf("read back %d bytes of %d", len(data), len(c.file))
		}
	}
	m.setSamples("dfs.write_mb_per_s", wr)
	m.setSamples("dfs.read_mb_per_s", rd)
	return nil
}

// identityKind names the probe job for distmr workers, which rebuild a
// job's code from its registered kind.
const identityKind = "ffbench/identity"

func init() {
	distmr.RegisterKind(identityKind, func([]byte) (*distmr.JobCode, error) {
		return &distmr.JobCode{NewMapper: newIdentityMapper, NewReducer: newCountReducer}, nil
	})
}

func newIdentityMapper() mapreduce.Mapper {
	return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, key, value []byte) error {
		ctx.Emit(key, value)
		return nil
	})
}

func newCountReducer() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key, _ []byte, values *mapreduce.Values) error {
		ctx.Emit(key, binary.AppendUvarint(nil, uint64(values.Len())))
		return nil
	})
}

// jobProbe runs, on cluster, the identity-count job over the corpus
// file (throughput: every record crosses map, shuffle and reduce once)
// and a one-record job of the same shape (what a job costs before its
// first record).
func jobProbe(r *runner, c *corpus, cluster *mapreduce.Cluster) (mrecPerS, fixedMS []float64, err error) {
	job := func(name, input string) *mapreduce.Job {
		return &mapreduce.Job{
			Name:         name,
			Inputs:       []string{input},
			OutputPrefix: "probe/out/",
			NumReducers:  clusterNodes * clusterSlots,
			NewMapper:    newIdentityMapper,
			NewReducer:   newCountReducer,
			Spec:         &mapreduce.JobSpec{Kind: identityKind},
		}
	}
	if err := cluster.FS.WriteFile("probe/corpus", c.file); err != nil {
		return nil, nil, err
	}
	if err := cluster.FS.WriteFile("probe/one", spill.AppendFrame(nil, c.keys[0], c.vals[0])); err != nil {
		return nil, nil, err
	}
	for i := 0; i < r.reps(5); i++ {
		t0 := time.Now()
		res, err := cluster.Run(job("ffbench-identity", "probe/corpus"))
		if err != nil {
			return nil, nil, err
		}
		mrecPerS = append(mrecPerS, float64(len(c.keys))/1e6/time.Since(t0).Seconds())
		if res.MapOutputRecords != int64(len(c.keys)) || res.ReduceOutputRecords != int64(len(c.keys)) {
			return nil, nil, fmt.Errorf("identity job: %d records in, %d mapped, %d reduced",
				len(c.keys), res.MapOutputRecords, res.ReduceOutputRecords)
		}
	}
	for i := 0; i < r.reps(50); i++ {
		t0 := time.Now()
		if _, err := cluster.Run(job("ffbench-one", "probe/one")); err != nil {
			return nil, nil, err
		}
		fixedMS = append(fixedMS, float64(time.Since(t0).Microseconds())/1e3)
	}
	return mrecPerS, fixedMS, nil
}

func probeMapReduce(r *runner, c *corpus, m metrics) error {
	mrec, fixed, err := jobProbe(r, c, plainCluster())
	if err != nil {
		return err
	}
	m.setSamples("mapreduce.identity_mrec_per_s", mrec)
	m.setSamples("mapreduce.job_fixed_ms", fixed)
	return nil
}

func probeDistMR(r *runner, c *corpus, m metrics) error {
	cluster := plainCluster()
	cluster.Distributed = r.harness.Master
	mrec, fixed, err := jobProbe(r, c, cluster)
	if err != nil {
		return err
	}
	m.setSamples("distmr.identity_mrec_per_s", mrec)
	m.setSamples("distmr.job_fixed_ms", fixed)
	return nil
}

// probeSpill pushes the corpus through spill.Writer and reads it back
// through spill.Merge: once over a memory store with an unbounded
// budget (the distmr workers' default store) and once over a disk
// store at the sw-spill budget.
func probeSpill(r *runner, c *corpus, m metrics) error {
	const parts = clusterNodes * clusterSlots
	run := func(store spill.RunStore, budget int64) (writeMBs, mergeMBs, addAllocs float64, err error) {
		defer store.Close()
		w, err := spill.NewWriter(spill.Config{Partitions: parts, MemoryBudget: budget, Store: store, NamePrefix: "probe/"})
		if err != nil {
			return 0, 0, 0, err
		}
		a0 := mallocs()
		t0 := time.Now()
		for i, key := range c.keys {
			if err := w.Add(mapreduce.Partition(key, parts), key, c.vals[i]); err != nil {
				return 0, 0, 0, err
			}
		}
		addDur := time.Since(t0)
		addAllocs = float64(mallocs()-a0) / float64(len(c.keys))
		t0 = time.Now()
		out, err := w.Close()
		if err != nil {
			return 0, 0, 0, err
		}
		writeMBs = c.mb() / (addDur + time.Since(t0)).Seconds()

		var records int64
		t0 = time.Now()
		for p, segs := range out.Parts {
			if len(segs) == 0 {
				continue
			}
			it, _, err := spill.Merge(store, segs, spill.MergeOptions{TmpPrefix: fmt.Sprintf("probe/merge-%02d/", p)})
			if err != nil {
				return 0, 0, 0, err
			}
			for {
				_, _, ok, err := it.Next()
				if err != nil {
					it.Close()
					return 0, 0, 0, err
				}
				if !ok {
					break
				}
				records++
			}
			if err := it.Close(); err != nil {
				return 0, 0, 0, err
			}
		}
		mergeMBs = c.mb() / time.Since(t0).Seconds()
		if records != int64(len(c.keys)) {
			return 0, 0, 0, fmt.Errorf("merged %d records of %d", records, len(c.keys))
		}
		return writeMBs, mergeMBs, addAllocs, nil
	}

	var memW, memM, diskW, diskM []float64
	var addAllocs float64
	for i := 0; i < r.reps(5); i++ {
		w, mg, allocs, err := run(spill.NewMemRunStore(), math.MaxInt64)
		if err != nil {
			return fmt.Errorf("mem store: %w", err)
		}
		memW, memM, addAllocs = append(memW, w), append(memM, mg), allocs

		if err := os.MkdirAll(r.tmpDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(r.tmpDir, "probe-spill-")
		if err != nil {
			return err
		}
		store, err := spill.NewDiskRunStore(dir)
		if err == nil {
			w, mg, _, err = run(store, spillBudget)
		}
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("disk store: %w", err)
		}
		diskW, diskM = append(diskW, w), append(diskM, mg)
	}
	m.setSamples("spill.write_mb_per_s.mem", memW)
	m.setSamples("spill.merge_mb_per_s.mem", memM)
	m.setSamples("spill.write_mb_per_s.disk", diskW)
	m.setSamples("spill.merge_mb_per_s.disk", diskM)
	m.set("spill.add_allocs_per_rec", addAllocs)
	return nil
}

// batchSize is the aug_proc batch the FF reducers flush at.
const batchSize = 16

// pathBatches cuts the corpus paths into aug_proc-sized batches.
func (c *corpus) pathBatches() ([][]graph.ExcessPath, error) {
	if len(c.paths) < batchSize {
		return nil, fmt.Errorf("corpus holds %d excess paths, need %d", len(c.paths), batchSize)
	}
	var out [][]graph.ExcessPath
	for i := 0; i+batchSize <= len(c.paths); i += batchSize {
		out = append(out, c.paths[i:i+batchSize])
	}
	return out, nil
}

// echoService returns its argument, so one call prices the frame codec
// both ways plus the loopback round trip.
type echoService struct{}

func (echoService) Echo(args *core.SubmitArgs, reply *core.SubmitArgs) error {
	*reply = *args
	return nil
}

// probeRPC echoes a 16-path core.SubmitArgs — the hot message of every
// FF2+ round — over net/rpc on the rpcutil frame codec.
func probeRPC(r *runner, c *corpus, m metrics) error {
	batches, err := c.pathBatches()
	if err != nil {
		return err
	}
	args := &core.SubmitArgs{Round: 1, Task: 2, Exec: 3}
	for i := range batches[0] {
		args.Paths = append(args.Paths, graph.EncodePath(&batches[0][i]))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("FFBenchEcho", echoService{}); err != nil {
		ln.Close()
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeCodec(rpcutil.NewServerCodec(conn))
			}()
		}
	}()
	defer wg.Wait()
	defer ln.Close()
	client, err := rpcutil.DialRPC(ln.Addr().String(), rpcutil.Policy{})
	if err != nil {
		return err
	}
	defer client.Close()

	var echo []float64
	for i := 0; i < r.reps(3000); i++ {
		var reply core.SubmitArgs
		t0 := time.Now()
		if err := client.Call("FFBenchEcho.Echo", args, &reply); err != nil {
			return err
		}
		echo = append(echo, float64(time.Since(t0).Nanoseconds())/1e3)
		if len(reply.Paths) != len(args.Paths) {
			return fmt.Errorf("echo returned %d paths of %d", len(reply.Paths), len(args.Paths))
		}
	}
	frame := args.AppendFrame(nil)
	const encodes = 1000
	a0 := mallocs()
	for i := 0; i < encodes; i++ {
		frame = args.AppendFrame(frame[:0])
	}
	m.setSamples("rpcutil.echo_us", echo)
	m.set("rpcutil.frame_bytes_per_msg", float64(len(frame)))
	m.set("rpcutil.encode_allocs_per_msg", float64(mallocs()-a0)/encodes)
	return nil
}

// probeCore times the two halves of aug_proc: a reducer's Submit of a
// 16-path batch to a live server, and the accumulator's accept decision
// over the corpus paths.
func probeCore(r *runner, c *corpus, m metrics) error {
	batches, err := c.pathBatches()
	if err != nil {
		return err
	}
	srv, err := core.NewAugProcServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := core.DialAugProc(srv.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	srv.BeginRound(1)
	var submit []float64
	for i := 0; i < r.reps(3000); i++ {
		t0 := time.Now()
		if err := client.Submit(1, 0, i, batches[i%len(batches)]); err != nil {
			return err
		}
		submit = append(submit, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	srv.EndRound()

	var accept []float64
	for i := 0; i < r.reps(9); i++ {
		var acc core.Accumulator
		t0 := time.Now()
		for p := range c.paths {
			acc.Accept(&c.paths[p], graph.CapInf)
		}
		accept = append(accept, float64(time.Since(t0).Nanoseconds())/float64(len(c.paths)))
	}
	m.setSamples("core.augproc_submit_us", submit)
	m.setSamples("core.accumulator_ns_per_path", accept)
	return nil
}

// probePortfolio calls the auto engine's instance probe directly: its
// two O(diameter) MR-BFS sweeps are inside every grid-auto solve but
// carry no span of their own.
func probePortfolio(r *runner, _ *corpus, m metrics) error {
	cluster := plainCluster()
	counter := trace.New()
	cluster.Tracer = counter
	opts := r.options().WithDefaults(clusterNodes * clusterSlots)
	t0 := time.Now()
	p, err := portfolio.ProbeInstance(cluster, r.in, opts.Reducers, "probe/", false)
	if err != nil {
		return err
	}
	m.set("portfolio.probe_s", time.Since(t0).Seconds())
	if dec := portfolio.Choose(p); dec.Engine != prflow.EngineName {
		return fmt.Errorf("decision is %s (%s), want %s", dec.Engine, dec.Reason, prflow.EngineName)
	}
	var jobs int
	for _, s := range counter.Drain() {
		if s.Cat == trace.CatJob {
			jobs++
		}
	}
	m.set("portfolio.probe_jobs", float64(jobs))
	return nil
}

// probePRFlow calls the engine the probe chooses directly, checked
// against the oracle like any solve.
func probePRFlow(r *runner, _ *corpus, m metrics) error {
	opts := r.options().WithDefaults(clusterNodes * clusterSlots)
	opts.Engine = prflow.EngineName
	cluster := plainCluster()
	a0 := mallocs()
	t0 := time.Now()
	res, err := prflow.Run(cluster, r.in, opts)
	dur := time.Since(t0)
	allocs := mallocs() - a0
	if err := r.check("prflow.Run", res, err); err != nil {
		return err
	}
	steps := float64(res.Rounds)
	m.set("prflow.run_s", dur.Seconds())
	m.set("prflow.supersteps", steps)
	m.set("prflow.superstep_us_mean", float64(dur.Microseconds())/steps)
	m.set("prflow.allocs_per_superstep", float64(allocs)/steps)
	return nil
}
