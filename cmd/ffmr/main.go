// Command ffmr computes a maximum flow on one graph using the FFMR
// MapReduce algorithms and prints per-round statistics. The graph is an
// edge list written by cmd/gengraph (or any tool that writes the same
// format). The baselines, warm-versus-cold update runs and the paper's
// tables run in cmd/experiments; cmd/ffmr-service applies update
// batches to a resident solve.
//
// Examples:
//
//	# Generate a Barabási-Albert graph with super source/sink taps and
//	# run FF5 on a 8-node simulated cluster.
//	gengraph -gen ba -n 20000 -m 4 -w 16 -o ba.txt
//	ffmr -input ba.txt -variant 5 -nodes 8
//
//	# Run FF2 and cross-check against sequential Dinic.
//	ffmr -input graph.txt -variant 2 -check
//
//	# Let the portfolio probe the instance and pick the solver, or force
//	# the synchronous push-relabel engine on a high-diameter lattice.
//	gengraph -gen ba -n 20000 -m 2 -o pl.txt
//	ffmr -input pl.txt -engine auto -check
//	gengraph -gen grid -n 64 -o grid.txt
//	ffmr -input grid.txt -engine prflow -check
//
//	# Run on the distributed backend with 3 in-process TCP workers and
//	# verify per-round counters against the simulated engine.
//	gengraph -gen ws -n 2000 -o ws.txt
//	ffmr -input ws.txt -variant 5 -distributed -dist-verify
//
//	# Serve external worker processes (see cmd/ffmr-worker).
//	ffmr -input ws.txt -distributed -dist-workers 0 \
//	     -dist-listen 127.0.0.1:7350 -dist-wait 3
//
//	# Watch a distributed run live: structured logs (one "round done"
//	# event per round) and an admin server (/metrics, /healthz, /status,
//	# /flight, /debug/pprof).
//	ffmr -input ws.txt -distributed -log text -admin 127.0.0.1:8080
//
//	# Analyze a recorded trace: per-round critical path, wall-time
//	# attribution (map/shuffle/reduce/rpc/idle), stragglers, and the
//	# decision events. Crashed workers dump their tracers into
//	# run.json.d/, which -analyze merges onto the same timeline.
//	ffmr -input ws.txt -distributed -worker-crash 0.05 -trace run.json
//	ffmr -analyze run.json
package main

import (
	"errors"
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
		input   = flag.String("input", "", "edge-list file to solve (write one with gengraph)")
		seed    = flag.Int64("seed", 1, "seed of injected worker crashes (-worker-crash)")
		variant = flag.Int("variant", 5, "algorithm variant 1..5 (FF1..FF5)")
		engine  = flag.String("engine", "", "solver engine: ffmr|prflow|auto (empty: ffmr)")
		nodes   = flag.Int("nodes", 4, "simulated cluster nodes")
		slots   = flag.Int("slots", 4, "worker slots per node")
		kPaths  = flag.Int("excess-paths", 4, "per-vertex excess path limit (FF1..FF4)")
		maxR    = flag.Int("max-rounds", 1000, "abort after this many rounds")
		paperT  = flag.Bool("paper-termination", false, "terminate exactly per the paper's Fig. 2 rule")
		check   = flag.Bool("check", false, "cross-check the result against sequential Dinic")
		real    = flag.Bool("realistic", true, "charge Hadoop-like per-round overhead in simulated time")
		rounds  = flag.Bool("rounds", true, "print the per-round statistics table")
		trOut   = flag.String("trace", "", "write a Chrome trace_event JSON file of the run")
		budget  = flag.Int64("memory-budget", 0, "per-map-task shuffle buffer bytes; >0 spills sorted runs to disk (0 = unbounded in-memory shuffle)")
		spillTo = flag.String("spill-dir", "", "directory for spill segments (default: system temp dir)")

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

	in, err := readGraph(*input)
	if err != nil {
		return err
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
	cluster := newCluster(*nodes, *slots, *real, *budget, *spillTo)

	// Distributed mode: boot a master (plus optional in-process workers),
	// wait for registrations, and point the cluster's job execution at it.
	if *dist {
		var master *distmr.Master
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
		cluster.Distributed = master
		if *crash > 0 {
			cluster.Fault.WorkerCrashRate = *crash
			cluster.Fault.Seed = *seed
		}
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
	res, err := core.Run(cluster, in, opts)
	if err != nil {
		return err
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
		fmt.Println(stats.RoundTable("\nPer-round statistics", res.RoundStats))
	}

	if *distVerify {
		simOpts := opts
		simOpts.Tracer = trace.New()
		simRes, err := core.Run(newCluster(*nodes, *slots, *real, *budget, *spillTo), in, simOpts)
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

func newCluster(nodes, slots int, realistic bool, budget int64, spillDir string) *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: nodes, BlockSize: 4 << 20, Replication: 2})
	c := mapreduce.NewCluster(nodes, slots, fs)
	if realistic {
		c.Cost = mapreduce.DefaultCostModel()
	} else {
		c.Cost = mapreduce.ZeroCostModel()
	}
	c.MemoryBudget = budget
	c.SpillDir = spillDir
	return c
}

// readGraph loads the edge list at path (the format gengraph writes).
func readGraph(path string) (*graph.Input, error) {
	if path == "" {
		return nil, errors.New("-input is required: write a graph with gengraph, e.g. gengraph -gen ba -n 20000 -w 16 -o g.txt")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graphgen.ReadEdgeList(f)
}
