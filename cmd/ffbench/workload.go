package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"ffmr/internal/core"
	"ffmr/internal/dfs"
	"ffmr/internal/distmr"
	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/mapreduce"
	"ffmr/internal/maxflow"
	"ffmr/internal/portfolio"
	"ffmr/internal/trace"
)

// workload is one benchmark input and the configuration it runs under.
type workload struct {
	name, why string
	// grid selects the lattice solved by the "auto" engine; otherwise
	// the workload is the crawl graph solved by FF5.
	grid bool
	// spill bounds the shuffle buffer (spillBudget, DiskRunStore); dist
	// runs jobs on a three-worker distmr harness.
	spill, dist bool
}

var workloads = []workload{
	{name: "sw-mem", why: "paper regime: FF5 on a 40k-vertex crawl, in-memory shuffle; graph codec, core map/reduce and mapreduce do the work"},
	{name: "sw-spill", spill: true, why: "same graph and counts with a 256 KiB shuffle budget on disk, so the delta to sw-mem is spill sort+write+merge"},
	{name: "sw-dist", dist: true, why: "same graph and counts on 3 distmr workers over loopback TCP, so the delta to sw-mem is dispatch, frames and shuffle fetch"},
	{name: "grid-auto", grid: true, why: "63x63 lattice through the auto engine: hundreds of tiny MR-BFS jobs then prflow; per-job fixed cost, not per-record cost"},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// scale sizes a run. full is what BENCHMARK.json measures; smoke is the
// seconds-long variant the package test drives in-process.
type scale struct {
	name string
	// crawlVertices is the crawl prefix the sw-* workloads solve.
	crawlVertices int
	// gridSide is the lattice side of grid-auto.
	gridSide int
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// minSolves is the fewest timed solves a run reports a median of,
	// however short -seconds is.
	minSolves int
	// probeDiv divides the probe corpus and probe iteration counts.
	probeDiv int
}

var scales = map[string]scale{
	"full":  {name: "full", crawlVertices: 40_000, gridSide: 63, setups: 3, minSolves: 3, probeDiv: 1},
	"smoke": {name: "smoke", crawlVertices: 2_000, gridSide: 15, setups: 1, minSolves: 2, probeDiv: 10},
}

const (
	// The cluster shape every existing bench and differential suite uses.
	clusterNodes = 4
	clusterSlots = 4
	blockSize    = 1 << 20
	replication  = 2
	distWorkers  = 3
	// spillBudget is small enough that every map task of the crawl graph
	// spills several times and reducers need intermediate merge passes.
	spillBudget = 256 << 10
	// crawlSeed fixes the crawl's structure; see relabel for what -seed
	// varies and why.
	crawlSeed   = 1
	crawlAttach = 5
	superWidth  = 16
	superMinDeg = 10
)

// input generates the workload's graph. The program under test receives
// only this value.
func (w *workload) input(sc scale, seed int64) (*graph.Input, error) {
	if w.grid {
		// The lattice is the same at every seed: prflow's superstep count
		// depends on vertex numbering (499-519 under relabelling against
		// 711 in row-major order), so a relabelled grid would move every
		// count by a few percent between seeds.
		return graphgen.Grid(sc.gridSide, sc.gridSide)
	}
	chain, err := graphgen.CrawlChain([]graphgen.FBSpec{
		{Name: "ffbench-a", Vertices: sc.crawlVertices},
		{Name: "ffbench-b", Vertices: 2 * sc.crawlVertices},
	}, crawlAttach, crawlSeed)
	if err != nil {
		return nil, err
	}
	in, err := graphgen.AttachSuperSourceSink(chain[0], superWidth, superMinDeg, crawlSeed+100)
	if err != nil {
		return nil, err
	}
	return relabel(in, seed), nil
}

// relabel renumbers the vertices by a seeded permutation and keeps the
// edge order, so every seed is an isomorphic instance with its own
// partitioning, record sizes and split boundaries. A fresh crawl per
// seed moves shuffle bytes by +-20% and allocations by +-15% between
// seeds, which no regression bound survives; under relabelling rounds,
// records and accepted paths are identical and bytes move by under 1%.
func relabel(in *graph.Input, seed int64) *graph.Input {
	perm := rand.New(rand.NewSource(seed)).Perm(in.NumVertices)
	out := &graph.Input{
		NumVertices: in.NumVertices,
		Edges:       make([]graph.InputEdge, len(in.Edges)),
		Source:      graph.VertexID(perm[in.Source]),
		Sink:        graph.VertexID(perm[in.Sink]),
	}
	for i, e := range in.Edges {
		e.U, e.V = graph.VertexID(perm[e.U]), graph.VertexID(perm[e.V])
		out.Edges[i] = e
	}
	return out
}

// oracle is the sequential reference every solve is checked against.
func oracle(in *graph.Input) (int64, error) {
	net, err := maxflow.FromInput(in)
	if err != nil {
		return 0, err
	}
	return maxflow.Dinic(net, int(in.Source), int(in.Sink)), nil
}

// runner holds one workload's generated input, its oracle answer, the
// backend the solves run on and the failure account.
type runner struct {
	w      *workload
	sc     scale
	tmpDir string

	in   *graph.Input
	want int64

	harness  *distmr.Harness
	spillDir string

	// tr records the benchmark's own spans (category bench) and, during
	// the traced solve only, the program's; nil with tracing off.
	tr   *trace.Tracer
	root *trace.Span

	attempted, failed int
	firstFailure      string
}

const catBench = "bench"

func (r *runner) span(name string) *trace.Span {
	return r.tr.Start(catBench, name, r.root)
}

// setUp generates the input, computes the oracle answer and starts the
// backend; harnessTracer is handed to the distmr harness (nil: untraced).
func (r *runner) setUp(seed int64, harnessTracer *trace.Tracer) error {
	in, err := r.w.input(r.sc, seed)
	if err != nil {
		return fmt.Errorf("generate %s: %w", r.w.name, err)
	}
	want, err := oracle(in)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	r.in, r.want = in, want
	return r.startBackend(harnessTracer)
}

func (r *runner) startBackend(harnessTracer *trace.Tracer) error {
	switch {
	case r.w.dist:
		h, err := distmr.StartHarness(distmr.HarnessConfig{Workers: distWorkers, Tracer: harnessTracer})
		if err != nil {
			return fmt.Errorf("start harness: %w", err)
		}
		r.harness = h
	case r.w.spill:
		if err := os.MkdirAll(r.tmpDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(r.tmpDir, "spill-")
		if err != nil {
			return err
		}
		r.spillDir = dir
	}
	return nil
}

// tearDown stops the harness and removes the spill directory.
func (r *runner) tearDown() {
	if r.harness != nil {
		r.harness.Close()
		r.harness = nil
	}
	if r.spillDir != "" {
		os.RemoveAll(r.spillDir)
		r.spillDir = ""
	}
}

// newCluster builds the fresh DFS and cluster every solve gets.
func (r *runner) newCluster() *mapreduce.Cluster {
	c := plainCluster()
	if r.harness != nil {
		c.Distributed = r.harness.Master
	}
	if r.spillDir != "" {
		c.MemoryBudget = spillBudget
		c.SpillDir = r.spillDir
	}
	return c
}

// plainCluster is the simulated in-memory cluster the probes also use.
func plainCluster() *mapreduce.Cluster {
	fs := dfs.New(dfs.Config{Nodes: clusterNodes, BlockSize: blockSize, Replication: replication})
	c := mapreduce.NewCluster(clusterNodes, clusterSlots, fs)
	c.Cost = mapreduce.ZeroCostModel()
	return c
}

// options are the solver options of the workload. DeterministicAccept
// pins aug_proc's acceptance order so rounds, records, bytes and
// allocations repeat; FCFS acceptance lets them wander +-5% run to run.
func (r *runner) options() core.Options {
	opts := core.Options{DeterministicAccept: true}
	if r.w.grid {
		opts.Engine = portfolio.EngineName
	}
	return opts
}

// solve runs one complete solve on a fresh cluster and checks the flow
// against the oracle. A wrong or failed solve is counted and reported as
// an error; the caller decides whether to go on.
func (r *runner) solve(opts core.Options) (*core.Result, *mapreduce.Cluster, error) {
	cluster := r.newCluster()
	res, err := core.Run(cluster, r.in, opts)
	return res, cluster, r.check("solve", res, err)
}

// check does the failure accounting for one oracle-checked operation.
func (r *runner) check(what string, res *core.Result, err error) error {
	r.attempted++
	if err == nil && res.MaxFlow != r.want {
		err = fmt.Errorf("flow %d, oracle says %d", res.MaxFlow, r.want)
	}
	if err != nil {
		r.failed++
		err = fmt.Errorf("%s %s #%d: %w", r.w.name, what, r.attempted, err)
		if r.firstFailure == "" {
			r.firstFailure = err.Error()
		}
	}
	return err
}

// sample is what one timed solve cost, keyed by end-to-end metric name.
type sample map[string]float64

// timedSolve measures one solve from outside: wall clock, process CPU
// (getrusage user+sys), the allocation counters' deltas and the
// resident-set high-water mark.
func (r *runner) timedSolve(opts core.Options) (sample, *core.Result, *mapreduce.Cluster, error) {
	runtime.GC()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	t0 := time.Now()
	res, cluster, err := r.solve(opts)
	wall := time.Since(t0)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, nil, err
	}
	return sample{
		"solve_wall_s":   wall.Seconds(),
		"solve_cpu_s":    (cpu1 - cpu0).Seconds(),
		"solve_allocs":   float64(m1.Mallocs - m0.Mallocs),
		"solve_alloc_mb": float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		"rounds":         float64(res.Rounds),
		"peak_rss_mb":    rss,
	}, res, cluster, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so that each solve reports its own peak and the
// run the median of them: the one mark of a whole process is a maximum
// over every solve and swung by 15% between runs. Where the kernel
// refuses the write the marks accumulate and the median reads as that
// maximum.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kb float64
			if _, err := fmt.Sscanf(string(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// measureEndToEnd is the --trace 0 run: set-up (repeated for its
// median, each ending in one warm-up solve), then closed-loop timed
// solves with tracing off until seconds have passed.
func (r *runner) measureEndToEnd(seed int64, seconds float64) (metrics, error) {
	opts := r.options()
	var setups []float64
	for i := 0; i < r.sc.setups; i++ {
		r.tearDown()
		t0 := time.Now()
		if err := r.setUp(seed, nil); err != nil {
			return nil, err
		}
		if _, _, err := r.solve(opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	samples := map[string][]float64{}
	start := time.Now()
	for n := 0; n < r.sc.minSolves || time.Since(start).Seconds() < seconds; n++ {
		s, _, _, err := r.timedSolve(opts)
		if err != nil {
			return nil, err
		}
		for name, v := range s {
			samples[name] = append(samples[name], v)
		}
	}

	m := metrics{}
	for name, vs := range samples {
		m.setSamples(name, vs)
	}
	m.setSamples("setup_s", setups)
	return m, nil
}
