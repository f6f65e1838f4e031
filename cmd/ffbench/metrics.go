package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one row of the metric catalogue. The catalogue is the
// single list of names the benchmark emits; BENCHMARK.json repeats it
// (with the regression bounds) and the smoke test holds the two equal.
type metricDef struct {
	name, unit string
	// higher is the direction of "better"; false means lower is better.
	higher bool
	// exact marks a count that repeats exactly for a given seed, which
	// -compare requires to be equal instead of within a bound.
	exact bool
}

// endToEnd lists what a user of the solver sees. Every one is non-zero
// on every workload (the driver's contract), which is why shuffle_mb —
// 0 on grid-auto — lives in perLayer as core.shuffle_mb.
var endToEnd = []metricDef{
	{name: "solve_wall_s", unit: "s"},
	{name: "solve_cpu_s", unit: "s"},
	{name: "solve_allocs", unit: "count"},
	{name: "solve_alloc_mb", unit: "MB"},
	{name: "rounds", unit: "count", exact: true},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// perLayer lists the single-layer metrics, named <module>.<metric>. A
// metric whose layer a workload does not exercise is emitted as 0 there
// (see the README's layer table), never left out.
var perLayer = []metricDef{
	{name: "graph.records", unit: "count", exact: true},
	{name: "graph.rec_bytes_mean", unit: "B"},
	{name: "graph.decode_ns_per_rec", unit: "ns"},
	{name: "graph.encode_ns_per_rec", unit: "ns"},
	{name: "graph.decode_allocs_per_rec", unit: "count"},

	// Not exact: the driver's per-round checkpoint records wall times as
	// varints, so the total moves by a few bytes from run to run.
	{name: "dfs.bytes_written", unit: "B"},
	{name: "dfs.bytes_read", unit: "B", exact: true},
	{name: "dfs.files_created", unit: "count", exact: true},
	{name: "dfs.write_mb_per_s", unit: "MB/s", higher: true},
	{name: "dfs.read_mb_per_s", unit: "MB/s", higher: true},

	{name: "mapreduce.identity_mrec_per_s", unit: "Mrec/s", higher: true},
	{name: "mapreduce.job_fixed_ms", unit: "ms"},
	{name: "mapreduce.map_out_records", unit: "count", exact: true},
	{name: "mapreduce.jobs", unit: "count", exact: true},
	{name: "mapreduce.map_bucket_s", unit: "s"},
	{name: "mapreduce.reduce_bucket_s", unit: "s"},
	{name: "mapreduce.idle_bucket_s", unit: "s"},

	{name: "spill.write_mb_per_s.mem", unit: "MB/s", higher: true},
	{name: "spill.merge_mb_per_s.mem", unit: "MB/s", higher: true},
	{name: "spill.write_mb_per_s.disk", unit: "MB/s", higher: true},
	{name: "spill.merge_mb_per_s.disk", unit: "MB/s", higher: true},
	{name: "spill.add_allocs_per_rec", unit: "count"},
	{name: "spill.spills", unit: "count"},
	{name: "spill.spilled_mb", unit: "MB"},
	{name: "spill.merge_passes", unit: "count"},
	{name: "spill.merge_segments", unit: "count"},
	{name: "spill.spill_span_s", unit: "s"},
	{name: "spill.merge_span_s", unit: "s"},

	{name: "distmr.job_fixed_ms", unit: "ms"},
	{name: "distmr.identity_mrec_per_s", unit: "Mrec/s", higher: true},
	{name: "distmr.tasks", unit: "count"},
	{name: "distmr.start_task_rpc_ms_mean", unit: "ms"},
	{name: "distmr.queue_wait_ms_mean", unit: "ms"},
	{name: "distmr.task_service_ms_mean", unit: "ms"},
	{name: "distmr.shuffle_fetches", unit: "count"},
	{name: "distmr.shuffle_fetch_ms_mean", unit: "ms"},
	{name: "distmr.rpc_bucket_s", unit: "s"},
	{name: "distmr.shuffle_bucket_s", unit: "s"},
	{name: "distmr.worker_spans", unit: "count"},
	{name: "distmr.reassignments", unit: "count"},
	{name: "distmr.backups", unit: "count"},

	{name: "rpcutil.echo_us", unit: "us"},
	{name: "rpcutil.frame_bytes_per_msg", unit: "B"},
	{name: "rpcutil.encode_allocs_per_msg", unit: "count"},

	{name: "core.shuffle_mb", unit: "MB", exact: true},
	{name: "core.round0_s", unit: "s"},
	{name: "core.round_wall_ms_median", unit: "ms"},
	{name: "core.augproc_batches", unit: "count"},
	{name: "core.submitted_paths", unit: "count", exact: true},
	{name: "core.accepted_paths", unit: "count", exact: true},
	{name: "core.accept_ratio", unit: "ratio", higher: true},
	{name: "core.augproc_accept_ns_mean", unit: "ns"},
	{name: "core.augproc_submit_us", unit: "us"},
	{name: "core.accumulator_ns_per_path", unit: "ns"},

	{name: "portfolio.probe_s", unit: "s"},
	{name: "portfolio.probe_share", unit: "ratio"},
	{name: "portfolio.probe_jobs", unit: "count", exact: true},

	{name: "prflow.run_s", unit: "s"},
	{name: "prflow.supersteps", unit: "count", exact: true},
	{name: "prflow.superstep_us_mean", unit: "us"},
	{name: "prflow.allocs_per_superstep", unit: "count"},

	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "trace.spans", unit: "count"},
	{name: "trace.unattributed_frac", unit: "ratio"},
}

// crossWorkload lists the ratios only the all-workloads command can
// form, because each needs two workloads' solve_wall_s.
var crossWorkload = []metricDef{
	{name: "spill.vs_mem_wall_ratio", unit: "ratio"},
	{name: "distmr.vs_sim_wall_ratio", unit: "ratio"},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer, crossWorkload} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metric is one reported number. Timings sampled over several solves
// carry their quartiles and sample count; counts and one-shot probe
// results carry the value alone.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// metrics maps catalogue names to reported numbers.
type metrics map[string]metric

// set stores a single value under a catalogue name; the unit comes from
// the catalogue so a name can never be emitted with two units.
func (m metrics) set(name string, v float64) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("ffbench: metric not in the catalogue: " + name)
	}
	m[name] = metric{Value: v, Unit: d.unit}
}

// setSamples stores the median of samples with its quartiles and count.
func (m metrics) setSamples(name string, samples []float64) {
	m.set(name, median(samples))
	mt := m[name]
	mt.N = len(samples)
	if len(samples) >= 2 {
		mt.Q1, mt.Q3 = quartiles(samples)
	}
	m[name] = mt
}

// fillZeros emits every catalogue name of defs not yet present as 0:
// the layer is not on this workload's path.
func (m metrics) fillZeros(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(samples, n=4) does (exclusive method), so the
// spreads printed here are the ones the driver computes.
func quartiles(samples []float64) (q1, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// benchmarkFile is the part of BENCHMARK.json ffbench reads: the names
// it must emit and the bound -compare holds each end-to-end metric to.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkFile finds BENCHMARK.json in the working directory or
// the nearest parent that has one (go run -C cmd/ffbench starts two
// levels below the repo root).
func loadBenchmarkFile() (*benchmarkFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var bf benchmarkFile
			if err := json.Unmarshal(data, &bf); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &bf, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}
