package main

import (
	"io"
	"path/filepath"
	"regexp"
	"testing"

	"ffmr/internal/leakcheck"
)

// TestCatalogueMatchesBenchmarkFile holds the metric catalogue and the
// workload table equal to BENCHMARK.json, both ways.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(section string, listed []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", section, len(listed), len(defs))
		}
		for i, bm := range listed {
			d := defs[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if bm.Name != d.name || bm.Unit != d.unit || bm.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %+v", section, i, bm, d)
			}
			if !nameRE.MatchString(bm.Name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", section, bm.Name)
			}
			if bounded != (bm.Bound > 0) || bm.Bound > 0.25 {
				t.Errorf("%s: %s has bound %v", section, bm.Name, bm.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at smoke scale in-process, both trace
// modes, and checks what the driver and -compare rely on: every
// catalogue name emitted and no other, no failed solve, exact metrics
// repeating for a seed, and the comparison passing a file against
// itself while failing a copy slower by more than the bound.
func TestSmoke(t *testing.T) {
	defer leakcheck.Check(t)()
	tmp := t.TempDir()
	measure := func(w *workload, trace bool) *partResult {
		t.Helper()
		part, err := runOne(runConfig{
			workload: w.name, seed: 7, seconds: 0, trace: trace,
			sc: scales["smoke"], outDir: filepath.Join(tmp, "out"), tmpDir: filepath.Join(tmp, "spill"),
		}, io.Discard)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", w.name, trace, err)
		}
		if part.Failed != 0 || part.Attempted < 3 {
			t.Fatalf("%s trace=%v: %d failed of %d attempted", w.name, trace, part.Failed, part.Attempted)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(part.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics emitted, catalogue has %d", w.name, trace, len(part.Metrics), len(defs))
		}
		for _, d := range defs {
			if _, ok := part.Metrics[d.name]; !ok {
				t.Errorf("%s trace=%v: %s not emitted", w.name, trace, d.name)
			}
		}
		return part
	}

	res := resultFile{Schema: resultSchema, CrossWorkload: metrics{}}
	for i := range workloads {
		w := &workloads[i]
		row := workloadResult{Name: w.name, Why: w.why}
		e2e := measure(w, false)
		for _, d := range endToEnd {
			if m := e2e.Metrics[d.name]; m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.name, m.Value)
			} else if d.exact && m.Q1 != m.Q3 {
				t.Errorf("%s: exact metric %s varied between solves: %v..%v", w.name, d.name, m.Q1, m.Q3)
			}
		}
		layers, again := measure(w, true), measure(w, true)
		for _, d := range perLayer {
			if a, b := layers.Metrics[d.name].Value, again.Metrics[d.name].Value; d.exact && a != b {
				t.Errorf("%s: exact metric %s is %v then %v for the same seed", w.name, d.name, a, b)
			}
		}
		row.add(e2e)
		row.add(layers)
		res.Workloads = append(res.Workloads, row)
	}
	if a, b := res.Workloads[0].PerLayer, res.Workloads[1].PerLayer; a["core.shuffle_mb"] != b["core.shuffle_mb"] ||
		a["mapreduce.map_out_records"] != b["mapreduce.map_out_records"] {
		t.Errorf("sw-mem and sw-spill disagree on shuffle bytes or map-out records")
	}

	base := filepath.Join(tmp, "a.json")
	if err := writeJSON(base, &res); err != nil {
		t.Fatal(err)
	}
	problems, err := compareResults(base, base, io.Discard)
	if err != nil || len(problems) != 0 {
		t.Errorf("a file against itself: problems %v, err %v", problems, err)
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	slow := res.Workloads[0].EndToEnd["solve_wall_s"]
	slow.Value *= 1 + bf.EndToEnd[0].Bound + 0.05
	res.Workloads[0].EndToEnd["solve_wall_s"] = slow
	doctored := filepath.Join(tmp, "b.json")
	if err := writeJSON(doctored, &res); err != nil {
		t.Fatal(err)
	}
	problems, err = compareResults(base, doctored, io.Discard)
	if err != nil || len(problems) != 1 {
		t.Errorf("solve_wall_s slower than its bound: problems %v, err %v; want exactly one problem", problems, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	if m := median([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); m != 3.5 {
		t.Errorf("median = %v, want 3.5", m)
	}
}
