// Command ffmr computes a maximum flow on a graph using the FFMR
// MapReduce algorithms and prints per-round statistics.
//
// Examples:
//
//	# Generate a Barabási-Albert graph with super source/sink taps and
//	# run FF5 on a 8-node simulated cluster.
//	ffmr -gen ba -n 20000 -m 4 -w 16 -variant 5 -nodes 8
//
//	# Load an edge list, run FF2, cross-check against sequential Dinic.
//	ffmr -input graph.txt -variant 2 -check
//
//	# Let the portfolio probe the instance and pick the solver, or force
//	# the synchronous push-relabel engine on a high-diameter lattice.
//	ffmr -gen ba -n 20000 -m 2 -engine auto -check
//	ffmr -gen grid -n 64 -engine prflow -check
//
//	# Compare against the MR-BFS baseline.
//	ffmr -gen ws -n 5000 -k 6 -beta 0.1 -bfs
//
//	# Run on the distributed backend with 3 in-process TCP workers and
//	# verify per-round counters against the simulated engine.
//	ffmr -gen ws -n 2000 -variant 5 -distributed -dist-verify
//
//	# Serve external worker processes (see cmd/ffmr-worker).
//	ffmr -gen ws -n 2000 -distributed -dist-workers 0 \
//	     -dist-listen 127.0.0.1:7350 -dist-wait 3
//
//	# Watch a distributed run live: structured logs and an admin server
//	# (/metrics, /healthz, /status, /flight, /debug/pprof).
//	ffmr -gen ws -n 5000 -distributed -log json -admin 127.0.0.1:8080
//
//	# Analyze a recorded trace: per-round critical path, wall-time
//	# attribution (map/shuffle/reduce/rpc/idle), stragglers, and the
//	# decision events. Crashed workers dump their tracers into
//	# run.json.d/, which -analyze merges onto the same timeline.
//	ffmr -gen ws -n 5000 -distributed -worker-crash 0.05 -trace run.json
//	ffmr -analyze run.json
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/dynamic"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/maxflow"
	"ffmr/internal/obsv"
	_ "ffmr/internal/portfolio" // registers the "prflow" and "auto" engines
	"ffmr/internal/stats"
	"ffmr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ffmr: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		gen     = flag.String("gen", "", "generate a graph: ba|ws|rmat|er|grid|bip (mutually exclusive with -input)")
		input   = flag.String("input", "", "read an edge-list file instead of generating")
		n       = flag.Int("n", 10000, "vertices (ba, ws, er) / side length (grid) / per-side vertices (bip)")
		m       = flag.Int("m", 4, "attachment count (ba) / edges factor (rmat) / edges (er, absolute)")
		k       = flag.Int("k", 6, "ring neighbours (ws)")
		beta    = flag.Float64("beta", 0.1, "rewire probability (ws) / edge density (bip)")
		scale   = flag.Int("rmat-scale", 12, "log2 vertices (rmat)")
		seed    = flag.Int64("seed", 1, "generator seed")
		w       = flag.Int("w", 0, "attach a super source/sink with w taps (0 = use highest-degree endpoints)")
		minDeg  = flag.Int("min-degree", 8, "tap eligibility threshold for -w")
		variant = flag.Int("variant", 5, "algorithm variant 1..5 (FF1..FF5)")
		engine  = flag.String("engine", "", "solver engine: ffmr|prflow|auto (empty: ffmr)")
		nodes   = flag.Int("nodes", 4, "simulated cluster nodes")
		slots   = flag.Int("slots", 4, "worker slots per node")
		kPaths  = flag.Int("excess-paths", 4, "per-vertex excess path limit (FF1..FF4)")
		maxR    = flag.Int("max-rounds", 1000, "abort after this many rounds")
		paperT  = flag.Bool("paper-termination", false, "terminate exactly per the paper's Fig. 2 rule")
		check   = flag.Bool("check", false, "cross-check the result against sequential Dinic")
		bfs     = flag.Bool("bfs", false, "also run the MR-BFS baseline")
		bsp     = flag.Bool("bsp", false, "also run the Pregel/BSP translation")
		real    = flag.Bool("realistic", true, "charge Hadoop-like per-round overhead in simulated time")
		rounds  = flag.Bool("rounds", true, "print the per-round statistics table")
		live    = flag.Bool("progress", false, "print each round's statistics as it completes")
		trOut   = flag.String("trace", "", "write a Chrome trace_event JSON file of the run")
		budget  = flag.Int64("memory-budget", 0, "per-map-task shuffle buffer bytes; >0 spills sorted runs to disk (0 = unbounded in-memory shuffle)")
		spillTo = flag.String("spill-dir", "", "directory for spill segments (default: system temp dir)")
		comp    = flag.Bool("compress", false, "DEFLATE-compress spill segments")

		updates  = flag.Int("updates", 0, "after solving, apply this many randomized edge-update batches (dynamic max-flow)")
		updBatch = flag.Int("update-batch", 20, "updates per batch for -updates (inserts, deletes, capacity changes)")
		warm     = flag.Bool("warm", true, "solve update batches by warm restart from persisted state (false: cold recompute per batch)")

		dist       = flag.Bool("distributed", false, "run jobs on the distributed master/worker backend instead of the simulated engine")
		distWork   = flag.Int("dist-workers", 3, "in-process workers to start (0 = external ffmr-worker processes only)")
		distListen = flag.String("dist-listen", "", "master listen address for external workers (default: ephemeral loopback port)")
		distWait   = flag.Int("dist-wait", 0, "wait for this many registered workers before starting (counts in-process and external)")
		distVerify = flag.Bool("dist-verify", false, "also run the simulated engine and require identical per-round counters")
		crash      = flag.Float64("worker-crash", 0, "injected probability a worker dies at task start (distributed only)")

		submitTo = flag.String("submit", "", "submit the job to a running ffmr-service at this address instead of solving locally")
		tenant   = flag.String("tenant", "default", "tenant ID for -submit")
		priority = flag.Int("priority", 0, "job priority for -submit (higher dispatches first within the tenant)")
		handle   = flag.String("handle", "graph", "resident snapshot handle for -submit")

		logFmt   = flag.String("log", "", "emit structured logs to stderr: text|json (default: off)")
		logLevel = flag.String("log-level", "info", "log level for -log: debug|info|warn|error")
		admin    = flag.String("admin", "", "serve /metrics, /healthz, /status, /flight and /debug/pprof on this HTTP address")
		analyze  = flag.String("analyze", "", "analyze a Chrome trace file written with -trace, merged with its crash dumps (<file>.d/ and any dump files or directories given as arguments): per-round critical path, wall-time attribution, stragglers and events; then exit")
	)
	flag.Parse()

	if *analyze != "" {
		return analyzeTrace(*analyze, flag.Args())
	}

	var logger *slog.Logger
	if *logFmt != "" {
		logger = obsv.NewLogger(os.Stderr, *logFmt, obsv.ParseLevel(*logLevel))
	}
	// A traced run's crash dumps go beside its trace, where -analyze
	// looks for them.
	obsvOpts := obsv.Options{Logger: logger, AdminAddr: *admin}
	if *trOut != "" {
		obsvOpts.FlightDir = *trOut + ".d"
		stale, _ := filepath.Glob(filepath.Join(obsvOpts.FlightDir, "dump-*.json"))
		for _, f := range stale {
			os.Remove(f)
		}
	}

	in, err := buildGraph(*gen, *input, *n, *m, *k, *beta, *scale, *seed)
	if err != nil {
		return err
	}
	if *w > 0 {
		in, err = graphgen.AttachSuperSourceSink(in, *w, *minDeg, *seed+100)
		if err != nil {
			return err
		}
	}
	fmt.Printf("graph: %d vertices, %d edges, s=%d, t=%d\n",
		in.NumVertices, len(in.Edges), in.Source, in.Sink)

	// Client mode: hand the job to a resident flow service and verify
	// its answers instead of running a cluster in this process.
	if *submitTo != "" {
		return submitRun(*submitTo, *tenant, *handle, *priority, *variant, *engine, in, *check)
	}

	tracer := trace.New()
	// Deferred immediately so the trace survives run errors and early
	// termination — a failed run is exactly when the trace matters most.
	if *trOut != "" {
		defer func() {
			if err := writeTrace(tracer, *trOut); err != nil {
				log.Printf("trace: %v", err)
			} else {
				fmt.Printf("trace written to %s\n", *trOut)
			}
		}()
	}
	cluster := newCluster(*nodes, *slots, *real, *budget, *spillTo, *comp)

	// Distributed mode: boot a master (plus optional in-process workers),
	// wait for registrations, and point the cluster's job execution at it.
	var master *distmr.Master
	if *dist {
		if *distWork > 0 {
			h, err := distmr.StartHarness(distmr.HarnessConfig{
				Workers:    *distWork,
				Replace:    *crash > 0,
				Master:     distmr.Config{Addr: *distListen, Obsv: obsvOpts},
				Tracer:     tracer,
				WorkerObsv: obsv.Options{Logger: logger, FlightDir: obsvOpts.FlightDir},
			})
			if err != nil {
				return err
			}
			defer h.Close()
			master = h.Master
		} else {
			m, err := distmr.NewMaster(distmr.Config{Addr: *distListen, Tracer: tracer, Obsv: obsvOpts})
			if err != nil {
				return err
			}
			defer m.Shutdown()
			master = m
		}
		if a := master.AdminAddr(); a != "" {
			fmt.Printf("admin: http://%s/{metrics,healthz,status,debug/pprof}\n", a)
		}
		if *distWait > 0 {
			fmt.Printf("distributed: master on %s, waiting for %d workers\n", master.Addr(), *distWait)
			if err := master.WaitForWorkers(*distWait, 5*time.Minute); err != nil {
				return err
			}
		}
		fmt.Printf("distributed: %d workers registered with master %s\n",
			master.LiveWorkers(), master.Addr())
		distribute(cluster, master, *crash, *seed)
	} else if *admin != "" {
		// Simulated mode still gets the admin surface: /metrics serves the
		// tracer's live registry, pprof the in-process engine.
		a, err := obsv.StartAdmin(obsv.AdminConfig{
			Addr:   *admin,
			Tracer: func() *trace.Tracer { return tracer },
			Logger: logger,
		})
		if err != nil {
			return err
		}
		defer a.Close()
		fmt.Printf("admin: http://%s/{metrics,healthz,status,debug/pprof}\n", a.Addr())
	}

	opts := core.Options{
		Variant:   core.Variant(*variant),
		Engine:    *engine,
		K:         *kPaths,
		MaxRounds: *maxR,
		Tracer:    tracer,
		Log:       logger,
	}
	if *paperT {
		opts.Termination = core.TerminationPaper
	}
	if *live {
		opts.RoundCallback = func(rs core.RoundStat) {
			fmt.Printf("round %d: %s paths accepted (+%s flow), %s records out, %s shuffled, %s active\n",
				rs.Round, stats.FormatCount(rs.APaths), stats.FormatCount(rs.FlowDelta),
				stats.FormatCount(rs.MapOutRecords), stats.FormatBytes(rs.ShuffleBytes),
				stats.FormatCount(rs.ActiveVertices))
		}
	}

	// With -updates the base solve goes through dynamic.Solve, which keeps
	// the final records in the DFS so batches can warm-restart from them.
	var res *core.Result
	var snap *dynamic.Snapshot
	if *updates > 0 {
		snap, err = dynamic.Solve(cluster, in, opts)
		if err != nil {
			return err
		}
		res = snap.Result
	} else {
		res, err = core.Run(cluster, in, opts)
		if err != nil {
			return err
		}
	}

	fmt.Printf("\n%s max-flow: %d in %d rounds (sim %s, wall %s)\n",
		res.Variant, res.MaxFlow, res.Rounds,
		stats.FormatDuration(res.TotalSimTime), stats.FormatDuration(res.TotalWallTime))
	fmt.Printf("graph size: %s, max size during run: %s\n",
		stats.FormatBytes(res.InputGraphBytes), stats.FormatBytes(res.MaxGraphBytes))
	if *budget > 0 {
		reg := tracer.Registry()
		fmt.Printf("out-of-core shuffle: %s spills (%s), %s merge passes, max fan-in %d, %s store objects\n",
			stats.FormatCount(reg.Counter(trace.CounterSpills).Value()),
			stats.FormatBytes(reg.Counter(trace.CounterSpilledBytes).Value()),
			stats.FormatCount(reg.Counter(trace.CounterMergePasses).Value()),
			reg.Gauge(trace.GaugeMergeFanIn).Max(),
			stats.FormatCount(reg.Counter(trace.CounterSpillObjects).Value()))
	}

	if *rounds {
		fmt.Println(stats.RoundTable("\nPer-round statistics",
			trace.RoundSummariesUnder(res.RunSpan)))
	}

	if *updates > 0 {
		mode := "warm"
		if !*warm {
			mode = "cold"
		}
		tbl := stats.NewTable(fmt.Sprintf("\nDynamic updates (%s, %d batches x %d updates)", mode, *updates, *updBatch),
			"Gen", "Violations", "Cancelled", "Rounds", "SimTime", "|f*|")
		profile := graphgen.DefaultUpdateProfile()
		cur := in
		for g := 1; g <= *updates; g++ {
			batch, err := graphgen.GenerateUpdates(cur, *updBatch, profile, *seed+int64(1000*g))
			if err != nil {
				return err
			}
			var (
				flow    int64
				nrounds int
				simTime time.Duration
				viol    int
				cancel  int64
			)
			if *warm {
				out, err := dynamic.Apply(cluster, snap, batch)
				if err != nil {
					return err
				}
				snap, cur = out.Snapshot, out.Snapshot.Input
				flow, nrounds = out.Warm.MaxFlow, out.Warm.Rounds
				simTime = out.Warm.TotalSimTime + out.RepairSimTime
				viol, cancel = out.Violations, out.CancelledFlow
			} else {
				cur, err = graph.ApplyUpdates(cur, batch)
				if err != nil {
					return err
				}
				coldC := newCluster(*nodes, *slots, *real, *budget, *spillTo, *comp)
				if master != nil {
					distribute(coldC, master, *crash, *seed)
				}
				coldOpts := opts
				coldOpts.Tracer = nil
				coldRes, err := core.Run(coldC, cur, coldOpts)
				if err != nil {
					return err
				}
				flow, nrounds, simTime = coldRes.MaxFlow, coldRes.Rounds, coldRes.TotalSimTime
			}
			if *check {
				net, err := maxflow.FromInput(cur)
				if err != nil {
					return err
				}
				if want := maxflow.Dinic(net, int(cur.Source), int(cur.Sink)); want != flow {
					return fmt.Errorf("check: MISMATCH at batch %d — %s computed %d, Dinic says %d",
						g, mode, flow, want)
				}
			}
			tbl.AddRow(g, viol, stats.FormatCount(cancel), nrounds,
				stats.FormatDuration(simTime), stats.FormatCount(flow))
		}
		fmt.Println(tbl.String())
		if *check {
			fmt.Printf("check: sequential Dinic agrees after every batch\n")
		}
	}

	if *distVerify {
		simOpts := opts
		simOpts.Tracer = trace.New()
		simOpts.RoundCallback = nil
		simRes, err := core.Run(newCluster(*nodes, *slots, *real, *budget, *spillTo, *comp), in, simOpts)
		if err != nil {
			return err
		}
		if msg := diffRuns(simRes, res); msg != "" {
			return fmt.Errorf("dist-verify: MISMATCH — %s", msg)
		}
		if *budget > 0 {
			// Spill accounting must also agree: both backends publish
			// their out-of-core stats into their tracer's registry.
			sreg, dreg := simOpts.Tracer.Registry(), tracer.Registry()
			for _, name := range []string{trace.CounterSpills, trace.CounterSpilledBytes, trace.CounterMergePasses, trace.CounterSpillObjects} {
				if s, d := sreg.Counter(name).Value(), dreg.Counter(name).Value(); s != d {
					return fmt.Errorf("dist-verify: MISMATCH — %s: simulated %d, distributed %d", name, s, d)
				}
			}
		}
		fmt.Printf("dist-verify: simulated engine agrees (flow %d, %d rounds, identical per-round counters)\n",
			simRes.MaxFlow, simRes.Rounds)
	}

	if *check {
		net, err := maxflow.FromInput(in)
		if err != nil {
			return err
		}
		want := maxflow.Dinic(net, int(in.Source), int(in.Sink))
		if want == res.MaxFlow {
			fmt.Printf("check: sequential Dinic agrees (%d)\n", want)
		} else {
			return fmt.Errorf("check: MISMATCH — Dinic computed %d", want)
		}
	}

	if *bfs {
		bc := newCluster(*nodes, *slots, *real, *budget, *spillTo, *comp)
		if master != nil {
			distribute(bc, master, *crash, *seed)
		}
		bres, err := core.RunBFS(bc, in, 0, "")
		if err != nil {
			return err
		}
		fmt.Printf("BFS baseline: %d rounds, s-t distance %d, visited %d (sim %s)\n",
			bres.Rounds, bres.SinkDist, bres.Visited, stats.FormatDuration(bres.TotalSimTime))
	}

	if *bsp {
		bres, err := core.RunBSP(in, core.BSPOptions{Workers: *nodes * *slots, Tracer: tracer})
		if err != nil {
			return err
		}
		fmt.Printf("BSP translation: max-flow %d in %d supersteps, %s messages, %s moved (wall %s)\n",
			bres.MaxFlow, bres.Supersteps, stats.FormatCount(bres.Messages),
			stats.FormatBytes(bres.MessageBytes), stats.FormatDuration(bres.WallTime))
		if bres.MaxFlow != res.MaxFlow {
			return fmt.Errorf("BSP and MR flows disagree (BSP %d, MR %d)", bres.MaxFlow, res.MaxFlow)
		}
	}
	return nil
}

// analyzeTrace renders `-analyze`: the trace at path merged with every
// dump in path+".d" and in the extra files or directories, each file
// in its own span-id space on the trace's timeline.
func analyzeTrace(path string, extra []string) error {
	files := []string{path}
	for _, p := range append([]string{path + ".d"}, extra...) {
		fi, err := os.Stat(p)
		switch {
		case err != nil && p == path+".d":
			continue // a run without crashes leaves no dump directory
		case err != nil:
			return err
		case fi.IsDir():
			dumps, err := filepath.Glob(filepath.Join(p, "*.json"))
			if err != nil {
				return err
			}
			sort.Strings(dumps)
			files = append(files, dumps...)
		default:
			files = append(files, p)
		}
	}
	docs := make([][]byte, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		docs[i] = data
	}
	events, err := trace.ParseChromeTraces(docs...)
	if err != nil {
		return fmt.Errorf("analyze %s: %w", path, err)
	}
	rep, err := trace.Analyze(events)
	if err != nil {
		return err
	}
	rep.Format(os.Stdout)
	return nil
}

// writeTrace flushes the tracer to a Chrome trace_event JSON file.
func writeTrace(tracer *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// distribute points a cluster's job execution at the distributed
// backend and arms worker-crash injection.
func distribute(c *mapreduce.Cluster, m *distmr.Master, crash float64, seed int64) {
	c.Distributed = m
	if crash > 0 {
		c.Fault.WorkerCrashRate = crash
		c.Fault.Seed = seed
	}
}

// diffRuns compares two runs' results and per-round counters, ignoring
// the fields that legitimately differ across backends: SimTime and
// WallTime (measured durations differ between one-process simulation
// and real workers) and MaxQueue (the paths aug_proc held, which count a
// re-executed reduce task's copies).
func diffRuns(sim, dist *core.Result) string {
	if sim.MaxFlow != dist.MaxFlow {
		return fmt.Sprintf("max flow: simulated %d, distributed %d", sim.MaxFlow, dist.MaxFlow)
	}
	if sim.Rounds != dist.Rounds || len(sim.RoundStats) != len(dist.RoundStats) {
		return fmt.Sprintf("rounds: simulated %d (%d stats), distributed %d (%d stats)",
			sim.Rounds, len(sim.RoundStats), dist.Rounds, len(dist.RoundStats))
	}
	for i := range sim.RoundStats {
		a, b := comparableStat(sim.RoundStats[i]), comparableStat(dist.RoundStats[i])
		if a != b {
			return fmt.Sprintf("round %d counters differ:\n  simulated:   %+v\n  distributed: %+v", i, a, b)
		}
	}
	return ""
}

func comparableStat(rs core.RoundStat) core.RoundStat {
	rs.SimTime, rs.WallTime, rs.MaxQueue = 0, 0, 0
	return rs
}

func newCluster(nodes, slots int, realistic bool, budget int64, spillDir string, compress bool) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: nodes, BlockSize: 4 << 20, Replication: 2})
	c := mapreduce.NewCluster(nodes, slots, fs)
	if realistic {
		c.Cost = mapreduce.DefaultCostModel()
	} else {
		c.Cost = mapreduce.ZeroCostModel()
	}
	c.MemoryBudget = budget
	c.SpillDir = spillDir
	c.SpillCompress = compress
	return c
}

func buildGraph(gen, input string, n, m, k int, beta float64, scale int, seed int64) (*graph.Input, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graphgen.ReadEdgeList(f)
	}
	var in *graph.Input
	var err error
	switch gen {
	case "ba", "":
		in, err = graphgen.BarabasiAlbert(n, m, seed)
	case "ws":
		in, err = graphgen.WattsStrogatz(n, k, beta, seed)
	case "rmat":
		in, err = graphgen.RMAT(scale, m, seed)
	case "er":
		in, err = graphgen.ErdosRenyi(n, m, seed)
	case "grid":
		// Grid and bip pick their own corner/super endpoints: rerouting
		// them through PickEndpoints (or tapping a super source/sink with
		// -w) would collapse the diameter these families exist to provide.
		in, err = graphgen.Grid(n, n)
		if err != nil {
			return nil, err
		}
		graphgen.RandomCapacities(in, 16, seed)
		return in, nil
	case "bip":
		return graphgen.DenseBipartite(n, n, beta, seed)
	default:
		return nil, fmt.Errorf("unknown generator %q (want ba, ws, rmat, er, grid or bip)", gen)
	}
	if err != nil {
		return nil, err
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	return in, nil
}
