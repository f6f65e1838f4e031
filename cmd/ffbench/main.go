// Command ffbench is the repository's one performance ledger: a
// correctness-checked, layered max-flow benchmark. It generates its
// inputs from a seed with internal/graphgen, solves them in a closed
// loop (one client; solve i+1 starts when solve i returned) on a fresh
// DFS and cluster per solve, checks every answer against sequential
// Dinic, and reports the end-to-end and per-layer metrics catalogued in
// metrics.go and bounded in BENCHMARK.json.
//
// The driver's form measures one workload in one process and ends with
// one JSON line:
//
//	go run -C cmd/ffbench ffmr/cmd/ffbench --workload sw-mem --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs one traced solve plus the layer probes and reports the per-layer
// metrics. Without --workload the command re-executes itself once per
// workload and trace mode (so peak RSS and allocation deltas belong to
// one workload), prints every metric, and writes <out>/ffbench.json and
// one Chrome trace per workload. -compare a.json b.json holds two such
// files against each other. README.md in this directory has the
// workload table, the metric glossary and the layer interaction table.
//
// The package is a module of its own (go.mod with a replace directive)
// so that the benchmark builds from its own directory; everything it
// measures is reached through the public functions, spans and counters
// of the ffmr packages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds, for runs by hand.
const defaultSeconds = 20

// runConfig is one single-workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	// outDir receives the part file and the Chrome trace ("" writes none);
	// tmpDir holds spill directories while the run lasts.
	outDir, tmpDir string
}

// partResult is what one single-workload process measured.
type partResult struct {
	Workload     string  `json:"workload"`
	Trace        bool    `json:"trace"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	FirstFailure string  `json:"first_failure,omitempty"`
	WallS        float64 `json:"wall_s"`
	Metrics      metrics `json:"metrics"`
}

func (p *partResult) file(dir string) string {
	kind := "e2e"
	if p.Trace {
		kind = "layers"
	}
	return filepath.Join(dir, p.Workload+"."+kind+".json")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ffbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run one workload in this process (default: all, one process each)")
		seed      = fs.Int64("seed", 1, "input seed: relabels the crawl graph's vertices")
		seconds   = fs.Float64("seconds", defaultSeconds, "how long the timed solves of a run last")
		traceMode = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced solve and layer probes")
		scaleName = fs.String("scale", "full", "full or smoke")
		outDir    = fs.String("out", "", "directory for result and trace files (default with all workloads: ffbench-out)")
		compare   = fs.Bool("compare", false, "compare two result files: ffbench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ffbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, ok := scales[*scaleName]
	if !ok || fs.NArg() != 0 || *traceMode < 0 || *traceMode > 1 {
		fs.Usage()
		return 2
	}
	if *name == "" {
		if *outDir == "" {
			*outDir = "ffbench-out"
		}
		if err := runAll(*seed, *seconds, sc, *outDir, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	part, err := runOne(runConfig{
		workload: *name, seed: *seed, seconds: *seconds, trace: *traceMode == 1,
		sc: sc, outDir: *outDir, tmpDir: ".ffbench-tmp",
	}, stdout)
	if part == nil {
		return fail(err)
	}
	// The driver's contract: the last line is one JSON object, metric
	// entries carrying the value and unit alone.
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: err == nil, Attempted: part.Attempted, Failed: part.Failed, Metrics: map[string]valueUnit{}}
	for name, m := range part.Metrics {
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	data, jerr := json.Marshal(line)
	if jerr != nil {
		return fail(jerr)
	}
	fmt.Fprintln(stdout, string(data))
	if err != nil {
		return fail(err)
	}
	return 0
}

// runOne measures one workload in this process. A run that could not
// start returns a nil part; a run in which a solve or probe failed
// returns the part with the failure counted, and the error.
func runOne(cfg runConfig, stdout io.Writer) (*partResult, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &runner{w: w, sc: cfg.sc, tmpDir: cfg.tmpDir}
	defer os.Remove(cfg.tmpDir) // only succeeds once the run's own directories are gone
	defer r.tearDown()

	start := time.Now()
	var (
		m        metrics
		traceDoc []byte
		err      error
	)
	if cfg.trace {
		m, traceDoc, err = r.measureLayers(cfg.seed, cfg.seconds)
	} else {
		m, err = r.measureEndToEnd(cfg.seed, cfg.seconds)
	}
	part := &partResult{
		Workload: w.name, Trace: cfg.trace,
		Attempted: max(r.attempted, 1), Failed: r.failed, FirstFailure: r.firstFailure,
		WallS: time.Since(start).Seconds(), Metrics: m,
	}
	if err != nil {
		part.Failed = max(part.Failed, 1)
		part.Metrics = metrics{}
		return part, err
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%s  seed %d  scale %s  %d solves checked against Dinic (flow %d), 0 failed\n",
		w.name, cfg.seed, cfg.sc.name, r.attempted, r.want)
	printMetrics(stdout, defs, m)

	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return part, err
		}
		if err := writeJSON(part.file(cfg.outDir), part); err != nil {
			return part, err
		}
		if cfg.trace {
			if err := os.WriteFile(filepath.Join(cfg.outDir, w.name+".trace.json"), traceDoc, 0o644); err != nil {
				return part, err
			}
		}
	}
	return part, nil
}

func printMetrics(w io.Writer, defs []metricDef, m metrics) {
	for _, d := range defs {
		mt, ok := m[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-7s", d.name, mt.Value, mt.Unit)
		if mt.N > 1 {
			fmt.Fprintf(w, " q1 %.6g  q3 %.6g  n %d", mt.Q1, mt.Q3, mt.N)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(name string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(data, '\n'), 0o644)
}

// envStamp records where and how a result file was measured.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
}

// workloadResult is one workload's row of the result file.
type workloadResult struct {
	Name       string  `json:"name"`
	Why        string  `json:"why"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	// WallS is the wall time of the workload's whole run, both processes.
	WallS    float64 `json:"wall_s"`
	EndToEnd metrics `json:"end_to_end"`
	PerLayer metrics `json:"per_layer"`
}

// add folds one process's measurements into the workload's row.
func (row *workloadResult) add(part *partResult) {
	row.Attempted += part.Attempted
	row.Failed += part.Failed
	row.FailedFrac = float64(row.Failed) / float64(row.Attempted)
	row.WallS += part.WallS
	if part.Trace {
		row.PerLayer = part.Metrics
	} else {
		row.EndToEnd = part.Metrics
	}
}

// resultFile is the single schema every ffbench result is written in.
type resultFile struct {
	Schema        string           `json:"schema"`
	Env           envStamp         `json:"env"`
	Workloads     []workloadResult `json:"workloads"`
	CrossWorkload metrics          `json:"cross_workload"`
}

const resultSchema = "ffbench/1"

// runAll re-executes this binary once per workload and trace mode and
// merges the parts into <outDir>/ffbench.json.
func runAll(seed int64, seconds float64, sc scale, outDir string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := resultFile{
		Schema: resultSchema,
		Env: envStamp{
			Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Scale: sc.name,
		},
		CrossWorkload: metrics{},
	}
	for i := range workloads {
		w := &workloads[i]
		row := workloadResult{Name: w.name, Why: w.why}
		for _, traceMode := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", traceMode, "-scale", sc.name, "-out", outDir)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s --trace %s: %w", w.name, traceMode, err)
			}
			part := partResult{Workload: w.name, Trace: traceMode == "1"}
			data, err := os.ReadFile(part.file(outDir))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &part); err != nil {
				return err
			}
			row.add(&part)
		}
		res.Workloads = append(res.Workloads, row)
	}

	// The workloads table puts sw-mem, sw-spill and sw-dist first. They
	// solve one graph, so the differential suites' parity is an invariant
	// of the benchmark: same rounds, same shuffled bytes, same records.
	mem, spill, dist := &res.Workloads[0], &res.Workloads[1], &res.Workloads[2]
	for _, other := range []*workloadResult{spill, dist} {
		if other.EndToEnd["rounds"].Value != mem.EndToEnd["rounds"].Value {
			return fmt.Errorf("%s and %s disagree on rounds", mem.Name, other.Name)
		}
		for _, name := range []string{"core.shuffle_mb", "mapreduce.map_out_records"} {
			if other.PerLayer[name].Value != mem.PerLayer[name].Value {
				return fmt.Errorf("%s and %s disagree on %s", mem.Name, other.Name, name)
			}
		}
	}
	base := mem.EndToEnd["solve_wall_s"].Value
	res.CrossWorkload.set("spill.vs_mem_wall_ratio", spill.EndToEnd["solve_wall_s"].Value/base)
	res.CrossWorkload.set("distmr.vs_sim_wall_ratio", dist.EndToEnd["solve_wall_s"].Value/base)
	fmt.Fprintln(stdout, "cross-workload (base: sw-mem solve_wall_s)")
	printMetrics(stdout, crossWorkload, res.CrossWorkload)

	name := filepath.Join(outDir, "ffbench.json")
	if err := writeJSON(name, &res); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", name)
	return nil
}

// gitCommit stamps the result with the checkout's commit when there is
// one to ask.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
